#include "net/chaos_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.hpp"
#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "mw/parallel_runner.hpp"
#include "mw/sampling_service.hpp"
#include "net/tcp_transport.hpp"
#include "noise/noisy_function.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "testfunctions/functions.hpp"
#include "tests/mw/mw_test_helpers.hpp"

// Partition-chaos tests (§9.10): a ChaosProxy sits between master and
// workers and injects the classic fabric faults — full partitions,
// one-way blackholes, write stalls, mid-frame stalls, delay and
// duplication — under a deterministic seeded schedule.  The invariants:
// one-way silence trips a timeout on BOTH ends (not just the receiving
// one), a reconnecting worker gets a fresh rank while the stale rank's
// in-flight shards requeue exactly once, duplicated/late frames are
// discarded without corrupting MWDriver bookkeeping, and every recovered
// run stays bitwise identical to the solo run.

namespace {

using namespace sfopt;
using namespace sfopt::net;
using namespace std::chrono_literals;

mw::MessageBuffer payload(std::int64_t v) {
  mw::MessageBuffer b;
  b.pack(v);
  return b;
}

mw::MessageBuffer bigPayload(std::size_t bytes) {
  mw::MessageBuffer b;
  b.pack(std::string(bytes, 'x'));
  return b;
}

/// Dial the master THROUGH the proxy while the master polls the handshake.
std::unique_ptr<TcpWorkerTransport> joinViaProxy(TcpCommWorld& master, const ChaosProxy& proxy,
                                                 TcpWorkerTransport::Options opts = {}) {
  std::unique_ptr<TcpWorkerTransport> worker;
  std::thread t([&] {
    worker = std::make_unique<TcpWorkerTransport>("127.0.0.1", proxy.port(), opts);
  });
  (void)master.waitForWorkers(master.liveWorkers() + 1, 10.0);
  t.join();
  return worker;
}

/// Toy MW worker over a real transport: doubles an integer.
class DoubleWorker final : public mw::MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    out.pack(in.unpackInt64() * 2);
  }
};

TEST(ChaosProxy, RelaysFaithfullyUnderTheNoneScenario) {
  TcpCommWorld master(0);
  ChaosProxy proxy("127.0.0.1", master.port(), ChaosSchedule::preset("none", 1));
  auto worker = joinViaProxy(master, proxy);
  EXPECT_EQ(worker->rank(), 1);
  EXPECT_EQ(proxy.activeConnections(), 1);

  master.send(0, 1, 5, payload(123));
  EXPECT_EQ(worker->recv(1, 0, 5).payload.unpackInt64(), 123);
  worker->send(1, 0, 6, payload(456));
  EXPECT_EQ(master.recv(0, 1, 6).payload.unpackInt64(), 456);

  const auto c = proxy.counters();
  EXPECT_EQ(c.connectionsAccepted, 1u);
  EXPECT_GE(c.framesForwarded, 4u);  // hello, welcome, and the two messages
  EXPECT_EQ(c.framesDropped, 0u);
  EXPECT_EQ(c.framesDuplicated, 0u);
}

TEST(ChaosProxy, UnknownPresetIsRefused) {
  EXPECT_THROW((void)ChaosSchedule::preset("no-such-scenario", 1), std::invalid_argument);
}

TEST(ChaosProxy, SameSeedSameScheduleIsReplayable) {
  const ChaosSchedule a = ChaosSchedule::preset("partition-heal", 42);
  const ChaosSchedule b = ChaosSchedule::preset("partition-heal", 42);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].atSeconds, b.events[i].atSeconds);
    EXPECT_EQ(static_cast<int>(a.events[i].kind), static_cast<int>(b.events[i].kind));
  }
}

// -- Scenario (a): one-way silence trips a timeout on both ends -------------

TEST(PartitionChaos, BlackholeUpTripsMasterHeartbeatTimeout) {
  // Worker->master frames vanish while master->worker still flows: the
  // worker looks healthy to itself, but the master must declare it lost
  // on recv-silence within the heartbeat-timeout bound.
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 0.4;
  TcpCommWorld master(0, opts);
  ChaosProxy proxy("127.0.0.1", master.port());

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker = joinViaProxy(master, proxy, wopts);

  ChaosEvent bh;
  bh.kind = ChaosEvent::Kind::Blackhole;
  bh.dir = ChaosDir::Up;
  proxy.inject(bh);

  const auto lost = master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);
  ASSERT_TRUE(lost.has_value()) << "master never declared the silenced worker lost";
  EXPECT_EQ(lost->source, 1);
  EXPECT_EQ(master.liveWorkers(), 0);
  EXPECT_GT(proxy.counters().framesDropped, 0u);
}

TEST(PartitionChaos, BlackholeDownTripsWorkerMasterTimeout) {
  // Master->worker frames vanish while worker->master still flows: the
  // worker must notice the silence via --master-timeout and throw
  // ConnectionLost instead of waiting forever.
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  TcpCommWorld master(0, opts);
  ChaosProxy proxy("127.0.0.1", master.port());

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  wopts.masterTimeoutSeconds = 0.4;
  auto worker = joinViaProxy(master, proxy, wopts);

  ChaosEvent bh;
  bh.kind = ChaosEvent::Kind::Blackhole;
  bh.dir = ChaosDir::Down;
  proxy.inject(bh);

  EXPECT_THROW(
      {
        const auto deadline = std::chrono::steady_clock::now() + 5s;
        while (std::chrono::steady_clock::now() < deadline) {
          (void)worker->recvFor(1, 0.1, 0, 99);
        }
      },
      ConnectionLost);
}

// -- Satellite: master-side send-stall detection (half-open peer) -----------

TEST(PartitionChaos, WriteStallTripsSendStallDeadline) {
  // The proxy stops draining the master->worker direction while the
  // worker keeps heartbeating: recv-silence can never fire, and before
  // the fix the master's send buffer just grew forever.  The send-stall
  // deadline must evict the peer.
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 30.0;  // recv-silence must NOT be the trigger
  opts.sendStallTimeoutSeconds = 0.4;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  ChaosProxy proxy("127.0.0.1", master.port());

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker = joinViaProxy(master, proxy, wopts);

  ChaosEvent stall;
  stall.kind = ChaosEvent::Kind::Stall;
  stall.dir = ChaosDir::Down;
  proxy.inject(stall);
  std::this_thread::sleep_for(50ms);  // let the proxy stop reading

  std::optional<Message> lost;
  for (int i = 0; i < 64 && !lost.has_value(); ++i) {
    master.send(0, 1, 7, bigPayload(std::size_t{1} << 20));
    lost = master.recvFor(0, 0.1, kAnySource, kTagWorkerLost);
  }
  ASSERT_TRUE(lost.has_value()) << "stalled peer was never evicted";
  EXPECT_EQ(lost->source, 1);
  EXPECT_NE(lost->payload.unpackString().find("send"), std::string::npos);
  EXPECT_GE(spine.metrics().counter("net.send_stalls").value(), 1);
  EXPECT_EQ(master.liveWorkers(), 0);
}

TEST(PartitionChaos, SendBacklogOverflowEvictsPeer) {
  // Same stall, but with a generous deadline and a tight backlog cap: the
  // unbounded-buffer half of the bug.  The cap must evict the peer before
  // the userspace send buffer outgrows it.
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 30.0;
  opts.sendStallTimeoutSeconds = 30.0;  // the deadline must NOT be the trigger
  opts.maxSendBufferBytes = std::size_t{256} << 10;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  ChaosProxy proxy("127.0.0.1", master.port());

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker = joinViaProxy(master, proxy, wopts);

  ChaosEvent stall;
  stall.kind = ChaosEvent::Kind::Stall;
  stall.dir = ChaosDir::Down;
  proxy.inject(stall);
  std::this_thread::sleep_for(50ms);

  std::optional<Message> lost;
  for (int i = 0; i < 64 && !lost.has_value(); ++i) {
    master.send(0, 1, 7, bigPayload(std::size_t{1} << 20));
    lost = master.recvFor(0, 0.05, kAnySource, kTagWorkerLost);
  }
  ASSERT_TRUE(lost.has_value()) << "backlog overflow never evicted the peer";
  EXPECT_EQ(lost->payload.unpackString(), "send backlog overflow");
  EXPECT_GE(spine.metrics().counter("net.send_stalls").value(), 1);
}

// -- Satellite: worker-side write-deadline under a one-way partition --------

TEST(PartitionChaos, WorkerWriteStallHitsDeadlineThenReconnectsWithFreshRank) {
  // The proxy stops draining the worker->master direction while the
  // master keeps heartbeating: the worker's blocking framed write must
  // hit its deadline, surface ConnectionLost, and a reconnect (the CLI's
  // connectWithBackoff loop) must land a fresh rank after the heal.
  TcpCommWorld master(0);
  ChaosProxy proxy("127.0.0.1", master.port());

  TcpWorkerTransport::Options wopts;
  wopts.masterTimeoutSeconds = 0.5;  // doubles as the write deadline
  auto worker = joinViaProxy(master, proxy, wopts);

  ChaosEvent stall;
  stall.kind = ChaosEvent::Kind::Stall;
  stall.dir = ChaosDir::Up;
  proxy.inject(stall);
  std::this_thread::sleep_for(50ms);

  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) {
          worker->send(1, 0, 7, bigPayload(std::size_t{1} << 20));
        }
      },
      ConnectionLost);

  proxy.heal();
  // Failures on either side are captured and reported: an exception
  // escaping the thread, or a join skipped by a throwing wait, would
  // std::terminate the whole test binary.
  std::unique_ptr<TcpWorkerTransport> fresh;
  std::string redialError;
  std::thread redial([&] {
    try {
      fresh = connectWithBackoff("127.0.0.1", proxy.port(), 5, 0.05, wopts);
    } catch (const std::exception& e) {
      redialError = e.what();
    }
  });
  std::string waitError;
  try {
    (void)master.waitForWorkers(2, 10.0);
  } catch (const std::exception& e) {
    waitError = e.what();
  }
  redial.join();
  ASSERT_TRUE(redialError.empty()) << "redial failed: " << redialError;
  ASSERT_TRUE(waitError.empty()) << waitError;
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->rank(), 2);  // the stale rank is never reused
}

// -- Scenario (b)+(c): reconnect-after-heal, gauge retirement, requeue-once -

TEST(PartitionChaos, ReconnectAfterHealGetsFreshRankRetiresGaugesRequeuesOnce) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 0.5;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  ChaosProxy proxy("127.0.0.1", master.port());

  // Worker 1 joins through the proxy, ships telemetry snapshots, but
  // never executes tasks — it will be partitioned away mid-task.
  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker1 = joinViaProxy(master, proxy, wopts);
  worker1->setStatsProvider(
      [] { return WorkerStats{/*tasksExecuted=*/7, /*tasksFailed=*/1, 0.25}; });
  std::atomic<bool> stopDrain{false};
  std::thread drain([&] {
    try {
      while (!stopDrain.load()) (void)worker1->recvFor(1, 0.02, 0, 99);
    } catch (const ConnectionLost&) {
    }
  });

  // Pump both loops until worker 1's snapshot (with an RTT estimate) lands.
  auto& reg = spine.metrics();
  bool seen = false;
  for (int i = 0; i < 200 && !seen; ++i) {
    (void)master.recvFor(0, 0.03, kAnySource, 99);
    const auto fleet = master.fleetHealth();
    seen = !fleet.empty() && fleet[0].seen && fleet[0].rttSeconds >= 0.0;
  }
  ASSERT_TRUE(seen);
  EXPECT_EQ(reg.gauge("fleet.r1.tasks_executed").value(), 7.0);
  EXPECT_DOUBLE_EQ(reg.gauge("fleet.r1.execute_ewma_seconds").value(), 0.25);

  // Worker 2 connects directly (not through the proxy) and does real work.
  std::unique_ptr<DoubleWorker> survivor;
  std::unique_ptr<TcpWorkerTransport> transport2;
  std::thread runner([&] {
    try {
      transport2 = std::make_unique<TcpWorkerTransport>("127.0.0.1", master.port(), wopts);
      survivor = std::make_unique<DoubleWorker>(*transport2, transport2->rank());
      survivor->run();
    } catch (const ConnectionLost&) {
    }
  });
  (void)master.waitForWorkers(2, 10.0);

  mw::MWDriver driver(master);
  driver.setRecvTimeout(10.0);
  const std::uint64_t id = driver.submit(payload(21));  // dispatched to rank 1

  // Partition worker 1's link mid-task: the master must declare rank 1
  // lost, requeue the shard exactly once onto rank 2, and retire the
  // fleet.r1.* gauges rather than leave them frozen at the last reading.
  ChaosEvent cut;
  cut.kind = ChaosEvent::Kind::Partition;
  proxy.inject(cut);

  auto done = sfopt::test::waitAll(driver);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
  EXPECT_EQ(done[0].payload.unpackInt64(), 42);
  EXPECT_EQ(driver.tasksRequeued(), 1u) << "the in-flight shard must requeue exactly once";
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_EQ(driver.staleResultsDiscarded(), 0u);

  EXPECT_EQ(reg.gauge("fleet.r1.tasks_executed").value(), 0.0);
  EXPECT_EQ(reg.gauge("fleet.r1.tasks_failed").value(), 0.0);
  EXPECT_EQ(reg.gauge("fleet.r1.execute_ewma_seconds").value(), 0.0);
  EXPECT_EQ(reg.gauge("fleet.r1.rtt_seconds").value(), 0.0);
  EXPECT_EQ(reg.gauge("fleet.r1.clock_offset_seconds").value(), 0.0);
  const auto fleet = master.fleetHealth();
  EXPECT_FALSE(fleet[0].seen) << "the lost rank's FleetHealth must reset";

  // After the heal, the worker rejoins as a FRESH rank: rank 1 stays dead.
  proxy.heal();
  std::unique_ptr<TcpWorkerTransport> rejoined;
  std::thread redial([&] {
    rejoined = connectWithBackoff("127.0.0.1", proxy.port(), 5, 0.05, wopts);
  });
  (void)master.waitForWorkers(2, 10.0);
  redial.join();
  ASSERT_NE(rejoined, nullptr);
  EXPECT_EQ(rejoined->rank(), 3);

  driver.shutdown();
  runner.join();
  stopDrain.store(true);
  worker1->setStatsProvider({});
  drain.join();
}

// -- Mid-frame stall: the decoder starves on a torn frame -------------------

TEST(PartitionChaos, MidFrameStallStarvesDecoderUntilWorkerTimeout) {
  TcpCommWorld master(0);
  ChaosProxy proxy("127.0.0.1", master.port());

  TcpWorkerTransport::Options wopts;
  wopts.masterTimeoutSeconds = 0.5;
  auto worker = joinViaProxy(master, proxy, wopts);

  ChaosEvent torn;
  torn.kind = ChaosEvent::Kind::StallMidFrame;
  torn.dir = ChaosDir::Down;
  torn.stallAfterBytes = 7;
  proxy.inject(torn);
  std::this_thread::sleep_for(50ms);

  master.send(0, 1, 5, payload(123));
  // The worker receives exactly 7 bytes of the frame — enough to wake its
  // reader, never enough to complete the frame.  The silence deadline
  // must fire; the torn frame must never surface as a message.
  bool sawMessage = false;
  EXPECT_THROW(
      {
        const auto deadline = std::chrono::steady_clock::now() + 5s;
        while (std::chrono::steady_clock::now() < deadline) {
          if (worker->recvFor(1, 0.1, 0, 5).has_value()) {
            sawMessage = true;
            break;
          }
        }
      },
      ConnectionLost);
  EXPECT_FALSE(sawMessage);
  EXPECT_GE(proxy.counters().stalls, 1u);
}

// -- Scenario (d): recovered and fault-ridden runs stay bitwise -------------

TEST(PartitionChaos, DelayDuplicateRunIsBitwiseIdenticalToSolo) {
  // Every worker->master frame is duplicated and both directions are
  // delayed with seeded jitter for the whole run: the duplicated result
  // frames must be discarded (not crash the driver, as they did before
  // the fix) and the result must not move by a bit.
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
  const auto solo = mw::runSimplexOverMW(objective, start, options, config);

  TcpCommWorld master(0);
  ChaosProxy proxy("127.0.0.1", master.port(),
                   ChaosSchedule::preset("delay-duplicate", 2026));
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    const std::uint16_t port = proxy.port();
    threads.emplace_back([port, &objective] {
      try {
        TcpWorkerTransport transport("127.0.0.1", port);
        mw::SamplingWorker worker(transport, transport.rank(), objective, 1);
        worker.run();
      } catch (const ConnectionLost&) {
      }
    });
    (void)master.waitForWorkers(i + 1, 10.0);
  }
  const auto chaotic = mw::runSimplexOverTransport(objective, start, options, master, config);
  for (auto& t : threads) t.join();

  EXPECT_GT(proxy.counters().framesDuplicated, 0u);
  EXPECT_EQ(chaotic.optimization.iterations, solo.optimization.iterations);
  EXPECT_EQ(chaotic.optimization.totalSamples, solo.optimization.totalSamples);
  EXPECT_EQ(chaotic.optimization.bestEstimate, solo.optimization.bestEstimate);
  ASSERT_EQ(chaotic.optimization.best.size(), solo.optimization.best.size());
  for (std::size_t i = 0; i < chaotic.optimization.best.size(); ++i) {
    EXPECT_EQ(chaotic.optimization.best[i], solo.optimization.best[i]);
  }
  EXPECT_EQ(chaotic.tasksCompleted, solo.tasksCompleted);
}

TEST(PartitionChaos, ScheduledPartitionWithReconnectingWorkerStaysBitwise) {
  // One worker rides the proxy under a scheduled partition/heal while a
  // second worker connects directly: the partitioned worker's shards are
  // requeued, it reconnects after the heal as a fresh rank, and the
  // recovered run still matches the solo run bit for bit.
  const noise::NoisyFunction::Options noiseOpts{.sigma0 = 1.0, .seed = 99};
  // ~20us of busy-work per sample: values are untouched, but the run
  // reliably outlives the scheduled partition window instead of finishing
  // before the first fault fires (which would make the test vacuous).
  const noise::NoisyFunction objective(
      2,
      [](std::span<const double> x) {
        for (volatile int spin = 0; spin < 50'000; ++spin) {
        }
        return testfunctions::sphere(x);
      },
      noiseOpts);
  const std::vector<core::Point> start = {{2.0, 2.0}, {3.0, 2.0}, {2.0, 3.0}};

  core::MaxNoiseOptions algo;
  algo.common.termination.maxIterations = 30;
  algo.common.termination.maxSamples = 60'000;
  algo.common.sampling.shardMinSamples = 64;
  const core::AlgorithmOptions options = algo;

  mw::MWRunConfig config;
  config.workers = 2;
  config.clientsPerWorker = 1;
  const auto solo = mw::runSimplexOverMW(objective, start, options, config);

  TcpCommWorld::Options mopts;
  mopts.heartbeatIntervalSeconds = 0.05;
  mopts.heartbeatTimeoutSeconds = 0.3;
  TcpCommWorld master(0, mopts);

  ChaosSchedule schedule;
  schedule.seed = 2026;
  schedule.events.push_back(
      {0.2, ChaosEvent::Kind::Partition, ChaosDir::Up, 0.0, 0.0, 0, -1});
  // The heal must land well past the master's 0.3s heartbeat deadline:
  // results the worker ships during the partition are dropped on the
  // floor, and only the eviction-triggered requeue ever recomputes them —
  // a heal racing the eviction could strand those shards in-flight.
  schedule.events.push_back({1.0, ChaosEvent::Kind::Heal, ChaosDir::Up, 0.0, 0.0, 0, -1});
  ChaosProxy proxy("127.0.0.1", master.port(), schedule);

  // The chaos-side worker re-dials through the proxy whenever its link
  // dies, exactly like the CLI's reconnect loop.
  std::atomic<bool> stopReconnect{false};
  std::thread chaosWorker([&] {
    while (!stopReconnect.load()) {
      try {
        TcpWorkerTransport::Options wopts;
        wopts.heartbeatIntervalSeconds = 0.05;
        wopts.masterTimeoutSeconds = 0.3;
        wopts.handshakeTimeoutSeconds = 0.3;  // a partitioned redial fails fast
        TcpWorkerTransport transport("127.0.0.1", proxy.port(), wopts);
        mw::SamplingWorker worker(transport, transport.rank(), objective, 1);
        worker.run();
        break;  // clean shutdown from the master
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(30ms);
    }
  });
  std::thread steadyWorker([&] {
    try {
      TcpWorkerTransport::Options wopts;
      wopts.heartbeatIntervalSeconds = 0.05;
      TcpWorkerTransport transport("127.0.0.1", master.port(), wopts);
      mw::SamplingWorker worker(transport, transport.rank(), objective, 1);
      worker.run();
    } catch (const ConnectionLost&) {
    }
  });
  (void)master.waitForWorkers(2, 10.0);

  const auto recovered =
      mw::runSimplexOverTransport(objective, start, options, master, config);
  stopReconnect.store(true);
  chaosWorker.join();
  steadyWorker.join();

  EXPECT_EQ(recovered.optimization.iterations, solo.optimization.iterations);
  EXPECT_EQ(recovered.optimization.totalSamples, solo.optimization.totalSamples);
  EXPECT_EQ(recovered.optimization.bestEstimate, solo.optimization.bestEstimate);
  ASSERT_EQ(recovered.optimization.best.size(), solo.optimization.best.size());
  for (std::size_t i = 0; i < recovered.optimization.best.size(); ++i) {
    EXPECT_EQ(recovered.optimization.best[i], solo.optimization.best[i]);
  }
  // (tasksCompleted is NOT compared here: sharding adapts to the momentary
  // live-worker count, so a run that loses and regains a worker legally
  // carves different task counts — the bitwise contract covers results.)
  // Non-vacuity: the fault plan actually fired mid-run and forced recovery.
  EXPECT_GE(proxy.counters().partitions, 1u);
  EXPECT_GE(proxy.counters().heals, 1u);
  EXPECT_GE(recovered.tasksRequeued, 1u)
      << "the run finished before the scheduled partition could bite";
}

}  // namespace
