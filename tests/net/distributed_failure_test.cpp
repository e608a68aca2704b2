#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.hpp"
#include "core/eval_scheduler.hpp"
#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "mw/parallel_runner.hpp"
#include "mw/sampling_service.hpp"
#include "mw/vertex_server.hpp"
#include "net/tcp_transport.hpp"
#include "noise/noisy_function.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_analysis.hpp"
#include "testfunctions/functions.hpp"
#include "tests/mw/mw_test_helpers.hpp"

namespace {

using namespace sfopt;

std::vector<telemetry::Event> parseEvents(const std::string& jsonl) {
  std::vector<telemetry::Event> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (auto e = telemetry::parseJsonLine(line)) out.push_back(std::move(*e));
  }
  return out;
}

/// Thrown past MWWorker::run()'s catch(std::exception) so the worker
/// "crashes" instead of reporting a polite kTagError — the transport is
/// destroyed mid-task and the master only learns from the dead socket.
struct Die {};

class EchoWorker final : public mw::MWWorker {
 public:
  EchoWorker(net::Transport& comm, mw::Rank rank, bool dieOnFirstTask)
      : MWWorker(comm, rank), die_(dieOnFirstTask) {}

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    if (die_) throw Die{};
    out.pack(in.unpackInt64() * 2);
  }

 private:
  bool die_;
};

/// A SamplingWorker that can crash like EchoWorker: the span-tree test
/// runs the real sampling path so the EvalScheduler folds every shard.
class DyingSamplingWorker final : public mw::MWWorker {
 public:
  DyingSamplingWorker(net::Transport& comm, mw::Rank rank,
                      const noise::StochasticObjective& objective, bool dieOnFirstTask)
      : MWWorker(comm, rank), server_(objective, 1), die_(dieOnFirstTask) {}

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

TEST(DistributedFailure, KilledWorkerTaskIsRequeuedAndBatchCompletes) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  net::TcpCommWorld::Options opts;
  opts.telemetry = &spine;
  net::TcpCommWorld master(0, opts);
  const std::uint16_t port = master.port();

  // Worker 1 dies on its first task (abrupt socket close, no error reply);
  // worker 2 is healthy and picks up the pieces.
  std::vector<std::thread> threads;
  for (const bool die : {true, false}) {
    threads.emplace_back([port, die] {
      try {
        net::TcpWorkerTransport transport("127.0.0.1", port);
        EchoWorker worker(transport, transport.rank(), die);
        worker.run();
      } catch (const Die&) {
        // Crash: the transport goes down with the stack frame.
      } catch (const net::ConnectionLost&) {
      }
    });
    (void)master.waitForWorkers(master.liveWorkers() + 1, 10.0);
  }

  mw::MWDriver driver(master);
  driver.setRecvTimeout(10.0);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t v = 1; v <= 4; ++v) {
    mw::MessageBuffer b;
    b.pack(v);
    want[driver.submit(std::move(b))] = 2 * v;
  }
  auto done = sfopt::test::waitAll(driver);

  ASSERT_EQ(done.size(), 4u);
  for (auto& c : done) EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  EXPECT_EQ(driver.tasksCompleted(), 4u);
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_GE(driver.tasksRequeued(), 1u);
  EXPECT_EQ(driver.liveWorkerCount(), 1);

  // The driver's view and the transport telemetry tell the same story.
  EXPECT_EQ(spine.metrics().counter("net.disconnects").value(),
            static_cast<std::int64_t>(driver.workersLost()));

  driver.shutdown();
  for (auto& t : threads) t.join();
}

TEST(DistributedFailure, KilledWorkerLeavesCompleteSpanTree) {
  // Same crash scenario as above, over the real sampling path (an
  // EvalScheduler folding MWSamplingBackend shards) and with the full
  // tracing spine on both sides: the requeued shard's span tree must
  // reconstruct completely — one lifecycle root, a queue + remote span per
  // dispatch attempt, the lost attempt ended with outcome=lost, and
  // exactly one terminal marker.
  const noise::NoisyFunction objective(2, &testfunctions::sphere, {.sigma0 = 1.0, .seed = 5});
  std::ostringstream masterJsonl;
  telemetry::JsonlSink masterSink(masterJsonl);
  telemetry::Telemetry masterSpine(masterSink);
  net::TcpCommWorld::Options opts;
  opts.telemetry = &masterSpine;
  net::TcpCommWorld master(0, opts);
  const std::uint16_t port = master.port();

  std::array<std::ostringstream, 2> workerJsonl;
  std::vector<std::thread> threads;
  int joined = 0;
  for (const bool die : {true, false}) {
    std::ostringstream& stream = workerJsonl[static_cast<std::size_t>(joined)];
    threads.emplace_back([port, die, &stream, &objective] {
      telemetry::JsonlSink sink(stream);
      telemetry::Telemetry spine(sink);
      try {
        net::TcpWorkerTransport::Options wopts;
        wopts.telemetry = &spine;
        net::TcpWorkerTransport transport("127.0.0.1", port, wopts);
        spine.tracer().seedIds(
            (static_cast<std::uint64_t>(transport.rank()) << 40) + 1);
        DyingSamplingWorker worker(transport, transport.rank(), objective, die);
        worker.setTelemetry(&spine);
        worker.run();
      } catch (const Die&) {
      } catch (const net::ConnectionLost&) {
      }
    });
    (void)master.waitForWorkers(++joined, 10.0);
  }

  mw::MWDriver driver(master);
  driver.setTelemetry(&masterSpine);
  driver.setRecvTimeout(10.0);
  mw::MWSamplingBackend backend(driver);
  core::EvalScheduler sched(backend, {.telemetry = &masterSpine});
  const std::vector<double> x{1.0, -1.0};
  std::vector<core::SamplingBackend::BatchRequest> reqs;
  for (std::uint64_t v = 1; v <= 4; ++v) reqs.push_back({x, v, 0, 64});
  const auto results = sched.evaluate(reqs);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) EXPECT_EQ(r.count(), 64);
  EXPECT_GE(driver.tasksRequeued(), 1u);
  driver.shutdown();
  for (auto& t : threads) t.join();

  auto events = parseEvents(masterJsonl.str());
  for (const auto& stream : workerJsonl) {
    auto more = parseEvents(stream.str());
    events.insert(events.end(), more.begin(), more.end());
  }
  const telemetry::TraceReport report = telemetry::analyzeTraceEvents(events);
  for (const std::string& p : report.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.traces, 4u);
  EXPECT_EQ(report.folded, 4u);
  EXPECT_EQ(report.discarded, 0u);
  EXPECT_GE(report.requeues, 1u);
  // Every dispatch attempt is accounted for: it either folded its shard or
  // was traced as requeued/lost — nothing vanishes.
  EXPECT_EQ(report.dispatched, report.traces + report.requeues);
  EXPECT_TRUE(report.workerSpansSeen);
}

TEST(DistributedFailure, TracingOnOffIsBitwiseIdentical) {
  // Tracing is observation-only: the same pipelined run with the full
  // span/metric spine attached must reproduce the untraced run bit for
  // bit, including with sharding and speculation exercising the
  // EvalScheduler terminal markers.
  const noise::NoisyFunction::Options noiseOpts{.sigma0 = 1.0, .seed = 7};
  const noise::NoisyFunction objective(2, &testfunctions::sphere, noiseOpts);
  const std::vector<core::Point> start = {{2.0, 2.0}, {3.0, 2.0}, {2.0, 3.0}};

  core::MaxNoiseOptions algo;
  algo.common.termination.maxIterations = 10;
  algo.common.termination.maxSamples = 20'000;
  algo.common.sampling.shardMinSamples = 64;
  algo.common.sampling.speculate = true;

  mw::MWRunConfig config;
  config.workers = 2;
  config.clientsPerWorker = 1;
  const auto untraced = mw::runSimplexOverMW(objective, start, algo, config);

  std::ostringstream jsonl;
  telemetry::JsonlSink sink(jsonl);
  telemetry::Telemetry spine(sink);
  core::MaxNoiseOptions tracedAlgo = algo;
  tracedAlgo.common.telemetry = &spine;
  mw::MWRunConfig tracedConfig = config;
  tracedConfig.telemetry = &spine;
  const auto traced = mw::runSimplexOverMW(objective, start, tracedAlgo, tracedConfig);

  EXPECT_EQ(traced.optimization.iterations, untraced.optimization.iterations);
  EXPECT_EQ(traced.optimization.totalSamples, untraced.optimization.totalSamples);
  EXPECT_EQ(traced.optimization.bestEstimate, untraced.optimization.bestEstimate);
  ASSERT_EQ(traced.optimization.best.size(), untraced.optimization.best.size());
  for (std::size_t i = 0; i < traced.optimization.best.size(); ++i) {
    EXPECT_EQ(traced.optimization.best[i], untraced.optimization.best[i]);
  }
  EXPECT_EQ(traced.tasksCompleted, untraced.tasksCompleted);

  // And the traced run actually produced shard span trees.
  const auto events = parseEvents(jsonl.str());
  const telemetry::TraceReport report = telemetry::analyzeTraceEvents(events);
  EXPECT_GT(report.traces, 0u);
  for (const std::string& p : report.problems) ADD_FAILURE() << p;
}

TEST(DistributedFailure, TcpRunMatchesInProcessRunBitwise) {
  const noise::NoisyFunction::Options noiseOpts{.sigma0 = 1.0, .seed = 99};
  const noise::NoisyFunction objective(2, &testfunctions::sphere, noiseOpts);
  const std::vector<core::Point> start = {{2.0, 2.0}, {3.0, 2.0}, {2.0, 3.0}};

  core::MaxNoiseOptions algo;
  algo.common.termination.maxIterations = 12;
  algo.common.termination.maxSamples = 20'000;
  const core::AlgorithmOptions options = algo;

  mw::MWRunConfig config;
  config.workers = 2;
  config.clientsPerWorker = 1;
  const auto inProcess = mw::runSimplexOverMW(objective, start, options, config);

  net::TcpCommWorld master(0);
  const std::uint16_t port = master.port();
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([port, &objective] {
      try {
        net::TcpWorkerTransport transport("127.0.0.1", port);
        mw::SamplingWorker worker(transport, transport.rank(), objective, 1);
        worker.run();
      } catch (const net::ConnectionLost&) {
      }
    });
    (void)master.waitForWorkers(i + 1, 10.0);
  }
  const auto overTcp = mw::runSimplexOverTransport(objective, start, options, master, config);
  for (auto& t : threads) t.join();

  // Counter-based noise + byte-exact little-endian marshaling: the
  // distributed run reproduces the in-process run bit for bit.
  EXPECT_EQ(overTcp.optimization.iterations, inProcess.optimization.iterations);
  EXPECT_EQ(overTcp.optimization.totalSamples, inProcess.optimization.totalSamples);
  EXPECT_EQ(overTcp.optimization.bestEstimate, inProcess.optimization.bestEstimate);
  ASSERT_EQ(overTcp.optimization.best.size(), inProcess.optimization.best.size());
  for (std::size_t i = 0; i < overTcp.optimization.best.size(); ++i) {
    EXPECT_EQ(overTcp.optimization.best[i], inProcess.optimization.best[i]);
  }
  EXPECT_EQ(overTcp.tasksCompleted, inProcess.tasksCompleted);
}

}  // namespace
