#include "mw/vertex_server.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using core::SamplingBackend;
using mw::VertexServer;

TEST(VertexServer, RejectsZeroClients) {
  auto obj = test::noisySphere(2, 1.0);
  EXPECT_THROW(VertexServer(obj, 0), std::invalid_argument);
}

TEST(VertexServer, BatchMatchesInlineSampling) {
  auto obj = test::noisySphere(2, 2.0);
  const std::vector<double> x{1.0, -1.0};
  // 300 samples = four whole chunks and a partial one: every client count
  // below splits it differently, yet the chunks are the inline sampler's.
  const SamplingBackend::BatchRequest req{x, 5, 0, 300};
  const auto ref = core::sampleEvalChunks(obj, req);
  ASSERT_EQ(ref.size(), 5u);

  for (int clients : {1, 2, 3, 7}) {
    VertexServer server(obj, clients);
    const auto got = server.runBatchChunks(req);
    EXPECT_TRUE(test::sameMoments(got, ref)) << clients << " clients";
    EXPECT_TRUE(test::sameMoments(core::foldEvalChunks(got), core::foldEvalChunks(ref)))
        << clients << " clients";
  }
}

TEST(VertexServer, RespectsStartIndex) {
  auto obj = test::noisySphere(2, 2.0);
  const std::vector<double> x{0.5, 0.5};
  VertexServer server(obj, 2);
  // Two back-to-back chunk-aligned batches are the first and second half
  // of one 256-sample batch's chunks.
  auto chunks = server.runBatchChunks({x, 9, 0, 128});
  const auto second = server.runBatchChunks({x, 9, 128, 128});
  chunks.insert(chunks.end(), second.begin(), second.end());

  EXPECT_TRUE(test::sameMoments(chunks, core::sampleEvalChunks(obj, {x, 9, 0, 256})));
}

TEST(VertexServer, ZeroCountBatch) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 3);
  const std::vector<double> x{0.0, 0.0};
  EXPECT_TRUE(server.runBatchChunks({x, 1, 0, 0}).empty());
  EXPECT_THROW((void)server.runBatchChunks({x, 1, 0, -1}), std::invalid_argument);
}

TEST(VertexServer, CountSmallerThanClientPool) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 8);
  const std::vector<double> x{0.0, 0.0};
  const auto got = server.runBatchChunks({x, 2, 0, 3});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.front().count(), 3);
}

TEST(VertexServer, LoadIsSplitAcrossClients) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 4);
  const std::vector<double> x{0.0, 0.0};
  // Seven chunks over four clients: 2, 2, 2 chunks and the partial last.
  (void)server.runBatchChunks({x, 3, 0, 6 * core::kEvalChunkSamples + 10});
  const auto counts = server.clientSampleCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts, (std::vector<std::int64_t>{128, 128, 128, 10}));
}

TEST(VertexServer, ManySequentialBatches) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 2);
  const std::vector<double> x{1.0, 1.0};
  std::int64_t total = 0;
  for (int i = 0; i < 50; ++i) {
    const SamplingBackend::BatchRequest req{x, 4, static_cast<std::uint64_t>(total), 10};
    const auto got = server.runBatchChunks(req);
    EXPECT_TRUE(test::sameMoments(got, core::sampleEvalChunks(obj, req)));
    total += 10;
  }
  const auto counts = server.clientSampleCounts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}), total);
}

}  // namespace
