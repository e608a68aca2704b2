// Pipeline-equivalence properties: sharding batches across workers and
// speculatively prefetching the next round must not change a single bit of
// the optimization trajectory — the shard/merge discipline (canonical
// 64-sample chunks folded in index order) makes placement, completion
// order, worker count and even mid-shard failures invisible to the result.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/trace_io.hpp"
#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "mw/parallel_runner.hpp"
#include "mw/sampling_service.hpp"
#include "mw/vertex_server.hpp"
#include "net/tcp_transport.hpp"
#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;

template <typename Opts>
Opts pipelined(Opts o, std::int64_t shardMin = 64, bool speculate = true) {
  o.common.sampling.shardMinSamples = shardMin;
  o.common.sampling.speculate = speculate;
  return o;
}

/// The trace CSV (written at precision 17, so string equality is bit
/// equality) with the host wall-clock column removed — the only column
/// allowed to differ between two runs of the same trajectory.
std::string traceCsvWithoutWallSeconds(const core::OptimizationTrace& trace) {
  std::ostringstream csv;
  core::writeTraceCsv(csv, trace);
  std::istringstream in(csv.str());
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream cols(line);
    std::string col;
    std::string joined;
    for (int i = 0; std::getline(cols, col, ','); ++i) {
      if (i == 8) continue;  // wall_seconds
      if (!joined.empty()) joined += ',';
      joined += col;
    }
    out << joined << '\n';
  }
  return out.str();
}

void expectBitwiseSameRun(const core::OptimizationResult& a, const core::OptimizationResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.totalSamples, b.totalSamples);
  EXPECT_EQ(a.elapsedTime, b.elapsedTime);
  EXPECT_EQ(a.bestEstimate, b.bestEstimate);
  EXPECT_EQ(a.reason, b.reason);
  ASSERT_EQ(a.best.size(), b.best.size());
  for (std::size_t i = 0; i < a.best.size(); ++i) EXPECT_EQ(a.best[i], b.best[i]);
  EXPECT_EQ(traceCsvWithoutWallSeconds(a.trace), traceCsvWithoutWallSeconds(b.trace));
}

/// solo == --mw, bit for bit, for every simplex variant: the inline path
/// draws and folds the same canonical chunks as every backend, so no seed
/// may move even the last bit of the estimate.
TEST(PipelineEquivalence, SoloMatchesMwBitwiseForEveryAlgorithmAndSeed) {
  const auto start = test::simpleStart(3, -1.0, 0.8);
  const std::vector<core::AlgorithmOptions> variants{
      core::DetOptions{}, core::MaxNoiseOptions{}, core::AndersonOptions{}, core::PCOptions{}};
  for (core::AlgorithmOptions options : variants) {
    core::CommonOptions& common = core::commonOptions(options);
    common.termination.tolerance = 1e-2;
    common.termination.maxIterations = 150;
    common.termination.maxSamples = 400'000;
    common.sampling.maxSamplesPerVertex = 20'000;
    common.recordTrace = true;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("variant " + std::to_string(options.index()) + ", seed " +
                   std::to_string(seed));
      const auto obj = test::noisyRosenbrock(3, 10.0, seed);
      const auto solo = core::runSimplex(obj, start, options);
      const auto mw = mw::runSimplexOverMW(obj, start, options, mw::MWRunConfig{.workers = 3});
      expectBitwiseSameRun(mw.optimization, solo);
    }
  }
}

TEST(PipelineEquivalence, MnShardedSpeculativeMatchesUnshardedBitwise) {
  auto obj = test::noisyRosenbrock(3, 8.0);
  const auto start = test::simpleStart(3, -1.0, 0.8);
  core::MaxNoiseOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 80;
  opts.common.sampling.maxSamplesPerVertex = 20'000;
  opts.common.recordTrace = true;

  const auto plain = mw::runSimplexOverMW(obj, start, opts, mw::MWRunConfig{.workers = 4});
  const auto piped =
      mw::runSimplexOverMW(obj, start, pipelined(opts), mw::MWRunConfig{.workers = 4});
  expectBitwiseSameRun(piped.optimization, plain.optimization);

  const auto serial = core::runMaxNoise(obj, start, opts);
  expectBitwiseSameRun(piped.optimization, serial);
}

TEST(PipelineEquivalence, DetShardedMatchesUnshardedBitwise) {
  auto obj = test::noisySphere(2, 4.0);  // noisy quadratic bowl
  const auto start = test::simpleStart(2);
  core::DetOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 60;
  opts.common.sampling.maxSamplesPerVertex = 20'000;
  opts.common.recordTrace = true;

  const auto plain = mw::runSimplexOverMW(obj, start, opts, mw::MWRunConfig{.workers = 3});
  const auto piped = mw::runSimplexOverMW(obj, start, pipelined(opts, 64, false),
                                          mw::MWRunConfig{.workers = 3});
  expectBitwiseSameRun(piped.optimization, plain.optimization);

  const auto serial = core::runDeterministic(obj, start, opts);
  expectBitwiseSameRun(piped.optimization, serial);
}

TEST(PipelineEquivalence, PcShardedSpeculativeMatchesUnshardedBitwise) {
  auto obj = test::noisySphere(2, 5.0);
  const auto start = test::simpleStart(2);
  core::PCOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 50;
  opts.common.sampling.maxSamplesPerVertex = 20'000;
  opts.common.recordTrace = true;

  const auto plain = mw::runSimplexOverMW(obj, start, opts, mw::MWRunConfig{.workers = 4});
  const auto piped =
      mw::runSimplexOverMW(obj, start, pipelined(opts), mw::MWRunConfig{.workers = 4});
  expectBitwiseSameRun(piped.optimization, plain.optimization);

  const auto serial = core::runPointToPoint(obj, start, opts);
  expectBitwiseSameRun(piped.optimization, serial);
}

TEST(PipelineEquivalence, PcRosenbrockSpeculationAlsoBitwise) {
  auto obj = test::noisyRosenbrock(3, 6.0);
  const auto start = test::simpleStart(3, -1.0, 0.8);
  core::PCOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 40;
  opts.common.sampling.maxSamplesPerVertex = 10'000;
  opts.common.recordTrace = true;

  const auto plain = mw::runSimplexOverMW(obj, start, opts, mw::MWRunConfig{.workers = 4});
  const auto piped =
      mw::runSimplexOverMW(obj, start, pipelined(opts), mw::MWRunConfig{.workers = 4});
  expectBitwiseSameRun(piped.optimization, plain.optimization);
}

/// Sampling worker that reports errors on its first `failures` tasks (the
/// driver requeues each failed shard elsewhere), then behaves.
class FlakySamplingWorker final : public mw::MWWorker {
 public:
  FlakySamplingWorker(net::Transport& comm, mw::Rank rank,
                      const noise::StochasticObjective& objective, int clients, int failures)
      : MWWorker(comm, rank), server_(objective, clients), remainingFailures_(failures) {}

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    if (remainingFailures_-- > 0) throw std::runtime_error("injected shard failure");
    mw::SamplingTask task;
    task.unpackInput(in);
    task.setChunks(server_.runBatchChunks(
        {task.x(), task.vertexId(), task.startIndex(), task.count()}));
    task.packResult(out);
  }

 private:
  mw::VertexServer server_;
  int remainingFailures_;
};

TEST(PipelineEquivalence, RequeuedShardsKeepTheRunBitwiseIdentical) {
  auto obj = test::noisySphere(2, 3.0);
  const auto start = test::simpleStart(2);
  core::MaxNoiseOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 40;
  opts.common.sampling.maxSamplesPerVertex = 20'000;
  opts.common.recordTrace = true;

  const auto healthy =
      mw::runSimplexOverMW(obj, start, pipelined(opts), mw::MWRunConfig{.workers = 3});

  // Same pipelined run, but one worker fails its first three shards.
  mw::CommWorld comm(4);
  std::vector<std::thread> threads;
  FlakySamplingWorker flaky(comm, 1, obj, 1, 3);
  mw::SamplingWorker ok2(comm, 2, obj, 1);
  mw::SamplingWorker ok3(comm, 3, obj, 1);
  threads.emplace_back([&flaky] { flaky.run(); });
  threads.emplace_back([&ok2] { ok2.run(); });
  threads.emplace_back([&ok3] { ok3.run(); });
  const auto flakyRun =
      mw::runSimplexOverTransport(obj, start, pipelined(opts), comm, mw::MWRunConfig{});
  for (auto& t : threads) t.join();

  EXPECT_GE(flakyRun.tasksRequeued, 1u);
  expectBitwiseSameRun(flakyRun.optimization, healthy.optimization);
}

/// Thrown past MWWorker::run()'s catch(std::exception): the worker
/// "crashes" mid-shard and the master only learns from the dead socket.
struct Die {};

class DyingSamplingWorker final : public mw::MWWorker {
 public:
  DyingSamplingWorker(net::Transport& comm, mw::Rank rank,
                      const noise::StochasticObjective& objective, int clients, bool die)
      : MWWorker(comm, rank), server_(objective, clients), die_(die) {}

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    if (die_) throw Die{};
    mw::SamplingTask task;
    task.unpackInput(in);
    task.setChunks(server_.runBatchChunks(
        {task.x(), task.vertexId(), task.startIndex(), task.count()}));
    task.packResult(out);
  }

 private:
  mw::VertexServer server_;
  bool die_;
};

TEST(PipelineEquivalence, WorkerKilledMidShardOverTcpStaysBitwiseIdentical) {
  auto obj = test::noisySphere(2, 3.0);
  const auto start = test::simpleStart(2);
  core::MaxNoiseOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 25;
  opts.common.termination.maxSamples = 30'000;
  opts.common.sampling.maxSamplesPerVertex = 10'000;
  opts.common.recordTrace = true;

  const auto healthy =
      mw::runSimplexOverMW(obj, start, pipelined(opts), mw::MWRunConfig{.workers = 2});

  net::TcpCommWorld master(0);
  const std::uint16_t port = master.port();
  std::vector<std::thread> threads;
  for (const bool die : {true, false, false}) {
    threads.emplace_back([port, &obj, die] {
      try {
        net::TcpWorkerTransport transport("127.0.0.1", port);
        DyingSamplingWorker worker(transport, transport.rank(), obj, 1, die);
        worker.run();
      } catch (const Die&) {
        // Crash: the transport dies with the stack frame, mid-shard.
      } catch (const net::ConnectionLost&) {
      }
    });
    (void)master.waitForWorkers(master.liveWorkers() + 1, 10.0);
  }

  mw::MWRunConfig cfg;
  cfg.recvTimeoutSeconds = 30.0;
  const auto overTcp =
      mw::runSimplexOverTransport(obj, start, pipelined(opts), master, cfg);
  for (auto& t : threads) t.join();

  EXPECT_GE(overTcp.tasksRequeued, 1u);
  expectBitwiseSameRun(overTcp.optimization, healthy.optimization);
}

}  // namespace
