#include "mw/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "mw/comm.hpp"
#include "mw/mw_task.hpp"
#include "mw/processor_allocation.hpp"
#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using mw::MWRunConfig;
using mw::ProcessorAllocation;
using mw::runSimplexOverMW;

TEST(ProcessorAllocation, MatchesTable33) {
  // Table 3.3 of the paper: d = 20, 50, 100 with Ns = 1.
  const ProcessorAllocation a20{20, 1};
  EXPECT_EQ(a20.workers(), 23);
  EXPECT_EQ(a20.servers(), 23);
  EXPECT_EQ(a20.clients(), 23);
  EXPECT_EQ(a20.totalCores(), 70);
  const ProcessorAllocation a50{50, 1};
  EXPECT_EQ(a50.totalCores(), 160);
  const ProcessorAllocation a100{100, 1};
  EXPECT_EQ(a100.totalCores(), 310);
}

TEST(ProcessorAllocation, ConsistencyIdentityHoldsBroadly) {
  for (std::int64_t d = 2; d <= 64; d *= 2) {
    for (std::int64_t ns = 1; ns <= 5; ++ns) {
      const ProcessorAllocation a{d, ns};
      EXPECT_TRUE(a.consistent()) << "d=" << d << " ns=" << ns;
    }
  }
}

TEST(ParallelRunner, MatchesSequentialRun) {
  // The central integration property: farming the sampling over the MW
  // master-worker runtime must not change the optimization, because noise
  // draws are keyed by (vertexId, sampleIndex), not by which worker
  // computes them, and both paths fold the same canonical 64-sample
  // chunks.  The whole result, estimate included, is bitwise equal.
  auto obj = test::noisyRosenbrock(3, 10.0);
  const auto start = test::simpleStart(3, -1.0, 0.8);

  core::MaxNoiseOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 150;
  opts.common.sampling.maxSamplesPerVertex = 50'000;

  const auto sequential = core::runMaxNoise(obj, start, opts);
  const auto parallel = runSimplexOverMW(obj, start, opts, MWRunConfig{});

  EXPECT_EQ(parallel.optimization.iterations, sequential.iterations);
  EXPECT_EQ(parallel.optimization.totalSamples, sequential.totalSamples);
  EXPECT_EQ(parallel.optimization.best, sequential.best);
  EXPECT_EQ(parallel.optimization.bestEstimate, sequential.bestEstimate);
  EXPECT_EQ(parallel.optimization.reason, sequential.reason);
}

TEST(ParallelRunner, PCMatchesSequentialToo) {
  auto obj = test::noisySphere(2, 5.0);
  const auto start = test::simpleStart(2);
  core::PCOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 80;
  opts.common.sampling.maxSamplesPerVertex = 50'000;

  const auto sequential = core::runPointToPoint(obj, start, opts);
  const auto parallel = runSimplexOverMW(obj, start, opts, MWRunConfig{.workers = 4});
  EXPECT_EQ(parallel.optimization.best, sequential.best);
  EXPECT_EQ(parallel.optimization.iterations, sequential.iterations);
}

TEST(ParallelRunner, MultipleClientsPerWorkerStillIdentical) {
  auto obj = test::noisySphere(2, 5.0);
  const auto start = test::simpleStart(2);
  core::MaxNoiseOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 60;
  opts.common.sampling.maxSamplesPerVertex = 20'000;

  const auto sequential = core::runMaxNoise(obj, start, opts);
  const auto parallel =
      runSimplexOverMW(obj, start, opts, MWRunConfig{.workers = 3, .clientsPerWorker = 4});
  EXPECT_EQ(parallel.optimization.best, sequential.best);
  EXPECT_EQ(parallel.optimization.totalSamples, sequential.totalSamples);
}

TEST(ParallelRunner, DefaultWorkerCountIsDPlusThree) {
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2);
  core::DetOptions opts;
  opts.common.termination.maxIterations = 10;
  opts.common.termination.tolerance = 0.0;
  const auto run = runSimplexOverMW(obj, start, opts, MWRunConfig{});
  EXPECT_EQ(run.allocation.workers(), 5);  // d=2 => d+3
  EXPECT_GT(run.messagesSent, 0u);
  EXPECT_GT(run.tasksCompleted, 0u);
}

TEST(ParallelRunner, RejectsBadClientCount) {
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2);
  core::DetOptions opts;
  EXPECT_THROW(
      (void)runSimplexOverMW(obj, start, opts, MWRunConfig{.workers = 2, .clientsPerWorker = 0}),
      std::invalid_argument);
}

TEST(ParallelRunner, CommunicationScalesWithWork) {
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2);
  core::DetOptions small;
  small.common.termination.maxIterations = 5;
  small.common.termination.tolerance = 0.0;
  core::DetOptions large;
  large.common.termination.maxIterations = 50;
  large.common.termination.tolerance = 0.0;
  const auto a = runSimplexOverMW(obj, start, small, MWRunConfig{.workers = 2});
  const auto b = runSimplexOverMW(obj, start, large, MWRunConfig{.workers = 2});
  EXPECT_GT(b.messagesSent, a.messagesSent);
}

TEST(ParallelRunner, SilentFleetTripsTheRecvTimeoutBackstop) {
  // Rank 1 accepts every task and never answers.  Sharded or not, the run
  // must give up once the fleet has been silent for recvTimeoutSeconds
  // instead of waiting out a hard-coded window.
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2, 1.0, 0.5);
  for (const std::int64_t shardMin : {std::int64_t{0}, std::int64_t{64}}) {
    mw::CommWorld comm(2);
    std::thread swallower([&comm] {
      while (comm.recv(1).tag != mw::kTagShutdown) {
      }
    });
    core::MaxNoiseOptions opts;
    opts.common.termination.maxIterations = 5;
    opts.common.sampling.shardMinSamples = shardMin;
    MWRunConfig cfg;
    cfg.recvTimeoutSeconds = 0.3;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)mw::runSimplexOverTransport(obj, start, opts, comm, cfg),
                 std::runtime_error)
        << "shardMinSamples=" << shardMin;
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_LT(waited, 5.0) << "shardMinSamples=" << shardMin;
    comm.send(0, 1, mw::kTagShutdown, {});
    swallower.join();
  }
}

}  // namespace
