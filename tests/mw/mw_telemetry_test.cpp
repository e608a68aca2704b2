// MWDriver task-lifecycle telemetry, including the retry path: a
// fault-injecting worker fails its first N tasks, and the telemetry must
// agree with the driver's own requeue accounting while still covering the
// queue-wait / execute / idle-fraction instruments and the shard span trees.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/mw/mw_test_helpers.hpp"

namespace {

using namespace sfopt::mw;
namespace telemetry = sfopt::telemetry;

/// Submit values 0..count-1 and wait for them all; returns each task's
/// echoed result in submit order.
std::vector<std::int64_t> echoAll(MWDriver& driver, std::int64_t count) {
  std::map<std::uint64_t, std::size_t> slotOf;
  for (std::int64_t i = 0; i < count; ++i) {
    MessageBuffer b;
    b.pack(i);
    slotOf[driver.submit(std::move(b))] = static_cast<std::size_t>(i);
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(count), -1);
  for (auto& c : sfopt::test::waitAll(driver)) {
    out[slotOf.at(c.id)] = c.payload.unpackInt64();
  }
  return out;
}

/// Fails the first `failures` tasks it sees, then behaves.
class FlakyWorker final : public MWWorker {
 public:
  FlakyWorker(CommWorld& comm, Rank rank, int failures)
      : MWWorker(comm, rank), remainingFailures_(failures) {}

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    const std::int64_t v = in.unpackInt64();
    if (remainingFailures_-- > 0) {
      throw std::runtime_error("injected failure");
    }
    out.pack(v);
  }

 private:
  int remainingFailures_;
};

/// Every worker is constructed before any thread starts, so no running
/// thread reads `objs` while it grows.
struct Pool {
  Pool(CommWorld& comm, int workers, int failuresEach) {
    for (int w = 0; w < workers; ++w) {
      objs.push_back(std::make_unique<FlakyWorker>(comm, w + 1, failuresEach));
    }
    for (auto& obj : objs) threads.emplace_back([&worker = *obj] { worker.run(); });
  }
  ~Pool() {
    for (auto& t : threads) t.join();
  }
  std::vector<std::unique_ptr<FlakyWorker>> objs;
  std::vector<std::thread> threads;
};

class CaptureSink final : public telemetry::EventSink {
 public:
  void emit(const telemetry::Event& e) override { events.push_back(e); }
  std::vector<telemetry::Event> events;
};

TEST(MWTelemetry, RetriesAreCountedAndTaskLifecycleIsObserved) {
  constexpr int kWorkers = 2;
  constexpr int kFailuresEach = 2;
  constexpr std::int64_t kTasks = 12;

  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  CommWorld comm(kWorkers + 1);
  Pool pool(comm, kWorkers, kFailuresEach);
  MWDriver driver(comm);
  driver.setTelemetry(&tel);

  const auto results = echoAll(driver, kTasks);
  driver.shutdown();

  for (std::int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i);
  }

  // Every injected failure surfaced as a requeue, and the telemetry spine
  // saw exactly what the driver's own accounting saw.
  auto& reg = tel.metrics();
  EXPECT_EQ(driver.tasksRequeued(), kWorkers * kFailuresEach);
  EXPECT_EQ(reg.counter("mw.tasks_requeued").value(),
            static_cast<std::int64_t>(driver.tasksRequeued()));
  EXPECT_EQ(reg.counter("mw.tasks_completed").value(),
            static_cast<std::int64_t>(driver.tasksCompleted()));
  EXPECT_DOUBLE_EQ(reg.gauge("mw.workers").value(), kWorkers);

  // Dispatches = completions + requeues: each failed attempt was itself a
  // dispatch, and the queue-wait/execute histograms observed each one.
  const std::int64_t dispatched = reg.counter("mw.tasks_dispatched").value();
  EXPECT_EQ(dispatched, kTasks + kWorkers * kFailuresEach);
  auto& queueWait = reg.histogram("mw.task.queue_wait_seconds",
                                  telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  EXPECT_EQ(queueWait.count(), dispatched);
  auto& execute = reg.histogram("mw.task.execute_seconds",
                                telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  EXPECT_EQ(execute.count(), kTasks);
  EXPECT_GE(execute.sum(), 0.0);

  // The idle fraction of the live fleet is sampled at every completion.
  auto& idle = reg.histogram("mw.worker_idle_fraction",
                             {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  EXPECT_EQ(idle.count(), kTasks);
  EXPECT_GE(idle.sum(), 0.0);
  EXPECT_LE(idle.sum(), static_cast<double>(kTasks) + 1e-9);

  // Every task is one shard.lifecycle tree: a root ended ok with its
  // requeue count, and one shard.queue + shard.remote pair per dispatch.
  std::int64_t roots = 0, queues = 0, remotes = 0, requeuedRemotes = 0;
  double requeuesOnRoots = 0.0;
  for (const auto& e : sink.events) {
    if (e.type != "span") continue;
    if (e.name == "shard.lifecycle") {
      ++roots;
      EXPECT_EQ(e.str("outcome"), "ok");
      requeuesOnRoots += e.num("requeues").value_or(0.0);
    }
    queues += e.name == "shard.queue" ? 1 : 0;
    if (e.name == "shard.remote") {
      ++remotes;
      requeuedRemotes += e.str("outcome") == "error" ? 1 : 0;
    }
  }
  EXPECT_EQ(roots, kTasks);
  EXPECT_EQ(queues, dispatched);
  EXPECT_EQ(remotes, dispatched);
  EXPECT_EQ(requeuedRemotes, kWorkers * kFailuresEach);
  EXPECT_EQ(requeuesOnRoots, static_cast<double>(kWorkers * kFailuresEach));
}

TEST(MWTelemetry, CleanRunRecordsNoRequeues) {
  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  CommWorld comm(3);
  Pool pool(comm, 2, 0);
  MWDriver driver(comm);
  driver.setTelemetry(&tel);

  (void)echoAll(driver, 8);
  driver.shutdown();

  EXPECT_EQ(tel.metrics().counter("mw.tasks_requeued").value(), 0);
  EXPECT_EQ(tel.metrics().counter("mw.tasks_completed").value(), 8);
  EXPECT_EQ(tel.metrics().counter("mw.tasks_dispatched").value(), 8);
}

}  // namespace
