#include "mw/mw_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "core/eval_scheduler.hpp"
#include "mw/mw_task.hpp"
#include "mw/mw_worker.hpp"
#include "mw/sampling_service.hpp"
#include "noise/noisy_function.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "testfunctions/functions.hpp"
#include "tests/mw/mw_test_helpers.hpp"

namespace {

using namespace sfopt::mw;

/// Toy task: square an integer.
struct SquareTask {
  std::int64_t value_ = 0;
  std::int64_t result_ = 0;

  [[nodiscard]] MessageBuffer input() const {
    MessageBuffer buf;
    buf.pack(value_);
    return buf;
  }
};

/// Toy worker implementing the square service.
class SquareWorker final : public MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    const std::int64_t v = in.unpackInt64();
    out.pack(v * v);
  }
};

/// Every worker is constructed before any thread starts, so no running
/// thread reads `objs` while it grows.
struct Pool {
  explicit Pool(CommWorld& comm, int workers) {
    for (int w = 0; w < workers; ++w) objs.push_back(std::make_unique<SquareWorker>(comm, w + 1));
    for (auto& obj : objs) threads.emplace_back([&worker = *obj] { worker.run(); });
  }
  ~Pool() {
    for (auto& t : threads) t.join();
  }
  std::vector<std::unique_ptr<SquareWorker>> objs;
  std::vector<std::thread> threads;
};

/// Submit every task, wait for them all, and write each result back by
/// submit id.
void runTasks(MWDriver& driver, std::vector<SquareTask>& tasks) {
  std::map<std::uint64_t, std::size_t> slotOf;
  for (std::size_t i = 0; i < tasks.size(); ++i) slotOf[driver.submit(tasks[i].input())] = i;
  for (auto& c : sfopt::test::waitAll(driver)) {
    tasks[slotOf.at(c.id)].result_ = c.payload.unpackInt64();
  }
}

std::vector<SquareTask> squares(std::int64_t first, std::int64_t count) {
  std::vector<SquareTask> tasks;
  for (std::int64_t i = 0; i < count; ++i) tasks.push_back({first + i, -1});
  return tasks;
}

TEST(MWDriver, RequiresAtLeastOneWorker) {
  CommWorld w(1);
  EXPECT_THROW(MWDriver d(w), std::invalid_argument);
}

TEST(MWDriver, ExecutesTypedTasks) {
  CommWorld comm(4);
  Pool pool(comm, 3);
  MWDriver driver(comm);
  auto tasks = squares(0, 20);
  runTasks(driver, tasks);
  for (const auto& t : tasks) EXPECT_EQ(t.result_, t.value_ * t.value_);
  EXPECT_EQ(driver.tasksCompleted(), 20u);
  driver.shutdown();
}

TEST(MWDriver, EmptyBatchIsNoop) {
  CommWorld comm(2);
  Pool pool(comm, 1);
  MWDriver driver(comm);
  EXPECT_TRUE(driver.poll(5.0).empty()) << "nothing outstanding: poll must not wait";
  driver.shutdown();
}

TEST(MWDriver, ResultsInTaskOrderDespiteDynamicScheduling) {
  // Completions arrive in completion order; the submit id is what maps
  // each one back to its task, whichever worker ran it.
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  auto tasks = squares(0, 50);
  runTasks(driver, tasks);
  for (const auto& t : tasks) EXPECT_EQ(t.result_, t.value_ * t.value_);
  driver.shutdown();
}

TEST(MWDriver, MoreTasksThanWorkers) {
  CommWorld comm(2);  // single worker
  Pool pool(comm, 1);
  MWDriver driver(comm);
  auto tasks = squares(100, 7);
  runTasks(driver, tasks);
  for (const auto& t : tasks) EXPECT_EQ(t.result_, t.value_ * t.value_);
  driver.shutdown();
}

TEST(MWDriver, MultipleBatchesReuseWorkers) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  for (std::int64_t round = 0; round < 5; ++round) {
    auto tasks = squares(round, 1);
    runTasks(driver, tasks);
    EXPECT_EQ(tasks[0].result_, round * round);
  }
  EXPECT_EQ(driver.tasksCompleted(), 5u);
  driver.shutdown();
}

TEST(MWDriver, ShutdownIsIdempotentAndExecuteAfterThrows) {
  CommWorld comm(2);
  Pool pool(comm, 1);
  MWDriver driver(comm);
  driver.shutdown();
  driver.shutdown();
  EXPECT_THROW((void)driver.submit(SquareTask{3, 0}.input()), std::logic_error);
  EXPECT_THROW((void)driver.poll(0.0), std::logic_error);
}

TEST(MWDriver, RecvTimeoutThrowsWithTasksOutstanding) {
  // No worker ever answers: the dispatch succeeds, and the receive timeout
  // is the silence window the EvalScheduler waits on before giving up
  // instead of blocking forever.
  CommWorld comm(2);
  MWDriver driver(comm);
  driver.setRecvTimeout(0.05);
  MWSamplingBackend backend(driver);
  EXPECT_EQ(backend.silenceTimeoutSeconds(), 0.05);
  sfopt::core::EvalScheduler sched(backend, {});
  const std::vector<double> x{1.0};
  const sfopt::core::SamplingBackend::BatchRequest req{x, 1, 0, 64};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)sched.evaluate({&req, 1}), std::runtime_error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(), 5.0);
}

TEST(MWDriver, WorkerLostRequeuesItsTaskOntoSurvivors) {
  // The sampling path end to end: rank 1 is "lost" via a scripted
  // transport notification already queued when the batch starts, and the
  // EvalScheduler still folds every batch bitwise from the survivor.
  const sfopt::noise::NoisyFunction objective(2, &sfopt::testfunctions::sphere,
                                              {.sigma0 = 1.0, .seed = 3});
  CommWorld comm(3);
  SamplingWorker survivor(comm, 2, objective, 1);
  std::thread runner([&survivor] { survivor.run(); });
  comm.send(1, 0, sfopt::net::kTagWorkerLost, {});

  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  MWSamplingBackend backend(driver);
  sfopt::core::EvalScheduler sched(backend, {});
  const std::vector<double> x{0.5, 2.0};
  std::vector<sfopt::core::SamplingBackend::BatchRequest> reqs;
  for (std::uint64_t v = 1; v <= 3; ++v) reqs.push_back({x, v, 0, 100});
  const auto got = sched.evaluate(reqs);

  for (std::uint64_t v = 1; v <= 3; ++v) {
    std::vector<sfopt::stats::Welford> chunks;
    for (std::uint64_t first = 0; first < 100; first += 64) {
      std::vector<double> samples;
      for (std::uint64_t i = first; i < std::min<std::uint64_t>(first + 64, 100); ++i) {
        samples.push_back(objective.sample(x, {v, i}));
      }
      chunks.push_back(sfopt::core::accumulateEvalChunk(samples));
    }
    const auto want = sfopt::core::foldEvalChunks(chunks);
    EXPECT_EQ(got[v - 1].count(), 100);
    EXPECT_EQ(got[v - 1].mean(), want.mean());
    EXPECT_EQ(got[v - 1].sumSquaredDeviations(), want.sumSquaredDeviations());
  }
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_GE(driver.tasksRequeued(), 1u);
  EXPECT_EQ(driver.liveWorkerCount(), 1);
  driver.shutdown();  // skips the dead rank, stops the survivor
  runner.join();
}

TEST(MWDriver, ThrowsWhenEveryWorkerIsLost) {
  CommWorld comm(2);
  comm.send(1, 0, sfopt::net::kTagWorkerLost, {});
  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  (void)driver.submit(SquareTask{3, 0}.input());
  EXPECT_THROW((void)sfopt::test::waitAll(driver), std::runtime_error);
}

/// Reports kTagError on its first task (MWWorker turns the std::exception
/// into a polite error reply), then behaves.
class FailOnceWorker final : public MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    if (!failed_) {
      failed_ = true;
      throw std::runtime_error("transient failure");
    }
    const std::int64_t v = in.unpackInt64();
    out.pack(v * v);
  }

 private:
  bool failed_ = false;
};

TEST(MWDriver, AsyncSubmitAndDrainCompleteEverything) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 0; i < 12; ++i) {
    MessageBuffer b;
    b.pack(i);
    want[driver.submit(std::move(b))] = i * i;
  }
  EXPECT_EQ(driver.outstanding(), 12u);
  auto done = sfopt::test::waitAll(driver);
  EXPECT_EQ(driver.outstanding(), 0u);
  ASSERT_EQ(done.size(), 12u);
  for (auto& c : done) {
    ASSERT_TRUE(want.contains(c.id));
    EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  }
  EXPECT_EQ(driver.tasksCompleted(), 12u);
  driver.shutdown();
}

TEST(MWDriver, AsyncPollDeliversIncrementally) {
  CommWorld comm(2);
  Pool pool(comm, 1);
  MWDriver driver(comm);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 0; i < 5; ++i) {
    MessageBuffer b;
    b.pack(i + 10);
    want[driver.submit(std::move(b))] = (i + 10) * (i + 10);
  }
  std::size_t collected = 0;
  while (collected < 5) {
    auto ready = driver.poll(5.0);
    for (auto& c : ready) {
      EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
      ++collected;
    }
  }
  EXPECT_EQ(driver.outstanding(), 0u);
  driver.shutdown();
}

TEST(MWDriver, AsyncErrorReplyIsRequeued) {
  CommWorld comm(3);
  FailOnceWorker flaky(comm, 1);
  SquareWorker steady(comm, 2);
  std::thread t1([&flaky] { flaky.run(); });
  std::thread t2([&steady] { steady.run(); });

  MWDriver driver(comm);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 1; i <= 6; ++i) {
    MessageBuffer b;
    b.pack(i);
    want[driver.submit(std::move(b))] = i * i;
  }
  auto done = sfopt::test::waitAll(driver);
  ASSERT_EQ(done.size(), 6u);
  for (auto& c : done) EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  EXPECT_GE(driver.tasksRequeued(), 1u);
  driver.shutdown();
  t1.join();
  t2.join();
}

TEST(MWDriver, AsyncWorkerLostRequeuesOntoSurvivors) {
  CommWorld comm(3);
  SquareWorker survivor(comm, 2);
  std::thread runner([&survivor] { survivor.run(); });
  comm.send(1, 0, sfopt::net::kTagWorkerLost, {});

  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 1; i <= 4; ++i) {
    MessageBuffer b;
    b.pack(i);
    want[driver.submit(std::move(b))] = i * i;
  }
  auto done = sfopt::test::waitAll(driver);
  ASSERT_EQ(done.size(), 4u);
  for (auto& c : done) EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_GE(driver.tasksRequeued(), 1u);
  EXPECT_EQ(driver.liveWorkerCount(), 1);
  driver.shutdown();
  runner.join();
}

TEST(MWDriver, WorkersCountTheirTasks) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  {
    MWDriver driver(comm);
    auto tasks = squares(0, 10);
    runTasks(driver, tasks);
    driver.shutdown();
  }
  // Sum over workers equals the batch size (load split is dynamic).
  std::uint64_t total = 0;
  for (const auto& w : pool.objs) total += w->tasksExecuted();
  EXPECT_EQ(total, 10u);
}

TEST(MWDriver, DuplicateCompletionsForFoldedTasksAreDiscardedAndCounted) {
  // A fabric that re-delivers frames (or a proxy that duplicates them)
  // hands the driver a second kTagResult / kTagError for a task it already
  // completed.  The duplicates must be discarded and counted, never thrown
  // as "result for unknown task id" or allowed to free the rank's slot.
  sfopt::telemetry::NoopSink sink;
  sfopt::telemetry::Telemetry spine(sink);
  CommWorld comm(2);
  MWDriver driver(comm);
  driver.setTelemetry(&spine);

  std::thread script([&comm] {
    // Task 1 completes normally on rank 1...
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer res;
    res.pack(std::uint64_t{1});
    res.pack(std::int64_t{25});
    comm.send(1, 0, kTagResult, std::move(res));
    // ...then the fabric re-delivers the same result frame, and a stale
    // error report for the same id on top of it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer dup;
    dup.pack(std::uint64_t{1});
    dup.pack(std::int64_t{25});
    comm.send(1, 0, kTagResult, std::move(dup));
    MessageBuffer err;
    err.pack(std::uint64_t{1});
    err.pack(std::string("ghost failure"));
    comm.send(1, 0, kTagError, std::move(err));
    // Task 2 (dispatched once task 1 completed) completes last, so the
    // duplicates are guaranteed to pass through the dispatch bookkeeping
    // while it is still in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer res2;
    res2.pack(std::uint64_t{2});
    res2.pack(std::int64_t{36});
    comm.send(1, 0, kTagResult, std::move(res2));
  });

  // Task 1 goes straight to rank 1; task 2 waits for it to free up.
  EXPECT_EQ(driver.submit(SquareTask{5, 0}.input()), 1u);
  EXPECT_EQ(driver.submit(SquareTask{6, 0}.input()), 2u);
  auto done = sfopt::test::waitAll(driver);
  script.join();

  ASSERT_EQ(done.size(), 2u);
  std::map<std::uint64_t, std::int64_t> results;
  for (auto& c : done) results[c.id] = c.payload.unpackInt64();
  EXPECT_EQ(results.at(1), 25);
  EXPECT_EQ(results.at(2), 36);
  EXPECT_EQ(driver.staleResultsDiscarded(), 2u);
  EXPECT_EQ(driver.tasksRequeued(), 0u) << "a stale error report must not requeue";
  EXPECT_EQ(spine.metrics().counter("mw.stale_results_discarded").value(), 2);
  driver.shutdown();
}

TEST(MWDriver, LateResultReorderedAcrossReconnectIsDiscardedOnAsyncPath) {
  // A rank dies holding a task; the task requeues to another rank; THEN
  // the dead rank's result frame arrives (late frames can be reordered
  // across a loss — a healed proxy flushes them after the requeue).  The
  // late frame must not fold, must not free anyone else's slot, and must
  // not disturb the requeued attempt's bookkeeping.
  CommWorld comm(3);
  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  MessageBuffer b;
  b.pack(std::int64_t{7});
  const std::uint64_t id = driver.submit(std::move(b));  // dispatched to rank 1

  std::thread script([&comm, id] {
    // Rank 1 is declared lost while holding the task -> requeue to rank 2.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    comm.send(1, 0, sfopt::net::kTagWorkerLost, {});
    // The ghost's result surfaces AFTER the requeue: stale, discard.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer late;
    late.pack(id);
    late.pack(std::int64_t{49});
    comm.send(1, 0, kTagResult, std::move(late));
    // The requeued attempt on rank 2 is the one that folds.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer res;
    res.pack(id);
    res.pack(std::int64_t{49});
    comm.send(2, 0, kTagResult, std::move(res));
    // And one more duplicate after the fold, for good measure.
    MessageBuffer dup;
    dup.pack(id);
    dup.pack(std::int64_t{49});
    comm.send(2, 0, kTagResult, std::move(dup));
  });

  auto done = sfopt::test::waitAll(driver);
  (void)driver.poll(0.3);  // give the post-fold duplicate a window to land
  script.join();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
  EXPECT_EQ(done[0].payload.unpackInt64(), 49);
  EXPECT_EQ(driver.tasksRequeued(), 1u);
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_EQ(driver.staleResultsDiscarded(), 2u);
  driver.shutdown();
}

}  // namespace
