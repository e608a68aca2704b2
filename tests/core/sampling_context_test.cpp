#include "core/sampling_context.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using core::SamplingContext;
using core::SigmaMode;
using core::Vertex;

TEST(SamplingContext, CreateVertexSamplesAndCounts) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({1.0, 1.0}, 5);
  EXPECT_EQ(v->sampleCount(), 5);
  EXPECT_EQ(ctx.totalSamples(), 5);
  EXPECT_DOUBLE_EQ(ctx.now(), 0.0);  // creation does not advance the clock
}

TEST(SamplingContext, VertexIdsAreUnique) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.0, 0.0}, 1);
  auto b = ctx.createVertex({0.0, 0.0}, 1);
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(ctx.verticesCreated(), 2);
}

TEST(SamplingContext, DimensionMismatchThrows) {
  auto obj = test::noisySphere(3, 1.0);
  SamplingContext ctx(obj);
  EXPECT_THROW((void)ctx.createVertex({1.0, 1.0}, 1), std::invalid_argument);
}

TEST(SamplingContext, RefineRespectsCap) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 10;
  SamplingContext ctx(obj, opts);
  auto v = ctx.createVertex({0.0, 0.0}, 4);
  EXPECT_EQ(ctx.refine(*v, 100), 6);  // only room for 6 more
  EXPECT_EQ(v->sampleCount(), 10);
  EXPECT_TRUE(ctx.atSampleCap(*v));
  EXPECT_EQ(ctx.refine(*v, 5), 0);
}

TEST(SamplingContext, CoSampleChargesMaxDuration) {
  auto obj = test::noisySphere(2, 1.0);  // sampleDuration = 1
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.0, 0.0}, 1);
  auto b = ctx.createVertex({1.0, 1.0}, 1);
  ctx.coSample({{a.get(), 10}, {b.get(), 3}});
  // Concurrent refinement: wall time advances by max(10, 3) * dt = 10.
  EXPECT_DOUBLE_EQ(ctx.now(), 10.0);
  EXPECT_EQ(a->sampleCount(), 11);
  EXPECT_EQ(b->sampleCount(), 4);
}

TEST(SamplingContext, CoSampleMaxIsOverSamplesActuallyTaken) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 5;
  SamplingContext ctx(obj, opts);
  auto a = ctx.createVertex({0.0, 0.0}, 4);
  auto b = ctx.createVertex({1.0, 1.0}, 1);
  ctx.coSample({{a.get(), 100}, {b.get(), 2}});
  // a could only take 1 more (cap 5); b took 2; charge max = 2.
  EXPECT_DOUBLE_EQ(ctx.now(), 2.0);
}

TEST(SamplingContext, SigmaEstimatedVsExact) {
  auto obj = test::noisySphere(2, 4.0);
  SamplingContext estCtx(obj, {.sigmaMode = SigmaMode::Estimated});
  SamplingContext exactCtx(obj, {.sigmaMode = SigmaMode::Exact});
  auto v = estCtx.createVertex({0.5, 0.5}, 64);
  // Exact: sigma0 / sqrt(64) = 0.5.
  EXPECT_DOUBLE_EQ(exactCtx.sigma(*v), 0.5);
  // Estimated should be in the same ballpark (loose tolerance).
  EXPECT_NEAR(estCtx.sigma(*v), 0.5, 0.35);
}

TEST(SamplingContext, TrueValuePassesThrough) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({3.0, 4.0}, 1);
  ASSERT_TRUE(ctx.trueValue(*v).has_value());
  EXPECT_DOUBLE_EQ(*ctx.trueValue(*v), 25.0);
}

TEST(SamplingContext, EstimateConvergesToTrueValue) {
  auto obj = test::noisySphere(2, 5.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({1.0, 2.0}, 2);
  ctx.refine(*v, 40000);
  EXPECT_NEAR(v->mean(), 5.0, 0.15);
  EXPECT_LT(ctx.sigma(*v), 0.05);
}

TEST(SamplingContext, RejectsBadOptions) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 0;
  EXPECT_THROW(SamplingContext(obj, opts), std::invalid_argument);
}

TEST(SamplingContext, CoSampleCoalescesDuplicateVertices) {
  // Regression: two requests for the same vertex used to become two
  // batches starting at the same sampleCount, i.e. the same SampleKeys
  // drawn twice.  They must coalesce into one contiguous batch.
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.5, -0.5}, 1);
  ctx.coSample({{a.get(), 5}, {a.get(), 3}});
  EXPECT_EQ(a->sampleCount(), 9);
  // One vertex running both draws back-to-back: the charge is the sum.
  EXPECT_DOUBLE_EQ(ctx.now(), 8.0);

  // The moments are exactly those of the same refinement issued once.
  SamplingContext ref(obj);
  auto b = ref.createVertex({0.5, -0.5}, 1);
  (void)ref.refine(*b, 8);
  ASSERT_EQ(a->id(), b->id());
  EXPECT_EQ(a->mean(), b->mean());
  EXPECT_EQ(a->sampleCount(), b->sampleCount());
}

TEST(SamplingContext, CoalescedDuplicatesRespectTheCap) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 10;
  SamplingContext ctx(obj, opts);
  auto a = ctx.createVertex({0.0, 0.0}, 4);
  ctx.coSample({{a.get(), 5}, {a.get(), 100}});
  EXPECT_EQ(a->sampleCount(), 10);   // summed take clamped to the room left
  EXPECT_DOUBLE_EQ(ctx.now(), 6.0);  // charged what was actually taken
}

TEST(SamplingContext, DuplicatesChargeTheirSummedTakeAgainstTheMax) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.0, 0.0}, 1);
  auto b = ctx.createVertex({1.0, 1.0}, 1);
  ctx.coSample({{a.get(), 5}, {b.get(), 3}, {a.get(), 5}});
  // a's coalesced take is 10, b's is 3; the round costs max(10, 3).
  EXPECT_DOUBLE_EQ(ctx.now(), 10.0);
  EXPECT_EQ(a->sampleCount(), 11);
  EXPECT_EQ(b->sampleCount(), 4);
}

TEST(SamplingContext, NegativeRefineThrows) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({0.0, 0.0}, 1);
  EXPECT_THROW((void)ctx.refine(*v, -1), std::invalid_argument);
}

TEST(EvalChunks, SplitIsContiguousChunkAlignedAndFrontLoaded) {
  const std::vector<double> x{0.0};
  // 7 chunks (the last one partial) over 3 parts: 3, 2, 2 chunks.
  const core::SamplingBackend::BatchRequest req{x, 4, 100, 6 * 64 + 10};
  const auto parts = core::splitEvalChunks(req, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].startIndex, 100u);
  EXPECT_EQ(parts[0].count, 192);
  EXPECT_EQ(parts[1].startIndex, 292u);
  EXPECT_EQ(parts[1].count, 128);
  EXPECT_EQ(parts[2].startIndex, 420u);
  EXPECT_EQ(parts[2].count, 74);
  for (const auto& p : parts) EXPECT_EQ(p.vertexId, 4u);

  // More parts than chunks: the extra parts are empty.
  const auto sparse = core::splitEvalChunks({x, 4, 0, 70}, 4);
  ASSERT_EQ(sparse.size(), 4u);
  EXPECT_EQ(sparse[0].count, 64);
  EXPECT_EQ(sparse[1].count, 6);
  EXPECT_EQ(sparse[2].count, 0);
  EXPECT_EQ(sparse[3].count, 0);

  EXPECT_THROW((void)core::splitEvalChunks({x, 4, 0, -1}, 2), std::invalid_argument);
  EXPECT_THROW((void)core::splitEvalChunks(req, 0), std::invalid_argument);
}

TEST(EvalChunks, SamplerAccumulatesEachChunkOfTheKeyedStream) {
  auto obj = test::noisySphere(2, 3.0);
  const std::vector<double> x{0.5, -1.5};
  const core::SamplingBackend::BatchRequest req{x, 8, 40, 150};
  const auto chunks = core::sampleEvalChunks(obj, req);
  ASSERT_EQ(chunks.size(), 3u);  // 64, 64, 22
  std::uint64_t index = req.startIndex;
  for (const auto& chunk : chunks) {
    std::vector<double> samples;
    for (std::int64_t i = 0; i < chunk.count(); ++i) {
      samples.push_back(obj.sample(x, {8, index++}));
    }
    EXPECT_TRUE(test::sameMoments(chunk, core::accumulateEvalChunk(samples)));
  }
  EXPECT_EQ(index, req.startIndex + 150);
  // Concatenating the parts of any split reproduces the whole batch.
  std::vector<stats::Welford> joined;
  for (const auto& part : core::splitEvalChunks(req, 2)) {
    const auto c = core::sampleEvalChunks(obj, part);
    joined.insert(joined.end(), c.begin(), c.end());
  }
  EXPECT_TRUE(test::sameMoments(joined, chunks));
  EXPECT_TRUE(core::sampleEvalChunks(obj, {x, 8, 0, 0}).empty());
}

TEST(SamplingContext, InlineRefineAbsorbsTheCanonicalChunkFold) {
  // With no backend the context draws through the same sampler every
  // backend uses, so a vertex holds exactly the folded chunks.
  auto obj = test::noisySphere(2, 2.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({1.0, 2.0}, 100);
  ctx.refine(*v, 200);
  const core::SamplingBackend::BatchRequest first{v->point(), v->id(), 0, 100};
  const core::SamplingBackend::BatchRequest second{v->point(), v->id(), 100, 200};
  stats::Welford want = core::foldEvalChunks(core::sampleEvalChunks(obj, first));
  want.merge(core::foldEvalChunks(core::sampleEvalChunks(obj, second)));
  EXPECT_TRUE(test::sameMoments(v->accumulator(), want));
}

}  // namespace
