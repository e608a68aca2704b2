// Failure-injection tests for the MW runtime: a worker whose executeTask
// throws reports kTagError, and the driver requeues the task on another
// worker — the in-process analogue of the paper's worker-restart handling.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "tests/mw/mw_test_helpers.hpp"

namespace {

using namespace sfopt::mw;

/// Submit values first..first+count-1 and wait for them all; returns each
/// task's echoed result in submit order.
std::vector<std::int64_t> echoAll(MWDriver& driver, std::int64_t first, std::int64_t count) {
  std::map<std::uint64_t, std::size_t> slotOf;
  for (std::int64_t i = 0; i < count; ++i) {
    MessageBuffer b;
    b.pack(first + i);
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

/// Always fails.
class BrokenWorker final : public MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(MessageBuffer&, MessageBuffer&) override {
    throw std::runtime_error("permanently broken");
  }
};

/// Every worker is constructed before any thread starts, so no running
/// thread reads `objs` while it grows.
template <typename W, typename... Args>
struct Pool {
  Pool(CommWorld& comm, int workers, Args... args) {
    for (int w = 0; w < workers; ++w) objs.push_back(std::make_unique<W>(comm, w + 1, args...));
    for (auto& obj : objs) threads.emplace_back([&worker = *obj] { worker.run(); });
  }
  ~Pool() {
    for (auto& t : threads) t.join();
  }
  std::vector<std::unique_ptr<W>> objs;
  std::vector<std::thread> threads;
};

TEST(FailureInjection, FlakyWorkerTasksAreRequeuedAndComplete) {
  CommWorld comm(3);
  Pool<FlakyWorker, int> pool(comm, 2, 2);  // each worker fails its first 2 tasks
  MWDriver driver(comm);
  const auto results = echoAll(driver, 0, 12);
  for (std::int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GT(driver.tasksRequeued(), 0u);
  EXPECT_EQ(driver.tasksCompleted(), 12u);
  driver.shutdown();
}

TEST(FailureInjection, WorkerStaysUpAfterFailure) {
  CommWorld comm(2);
  Pool<FlakyWorker, int> pool(comm, 1, 1);  // single worker, fails once
  MWDriver driver(comm);
  // With only one worker the driver must eventually hand the task back to
  // the same (previously failing) worker rather than deadlock.
  EXPECT_EQ(echoAll(driver, 42, 1).front(), 42);
  EXPECT_EQ(pool.objs[0]->tasksFailed(), 1u);
  EXPECT_EQ(pool.objs[0]->tasksExecuted(), 1u);
  driver.shutdown();
}

TEST(FailureInjection, PermanentFailureSurfacesAfterRetries) {
  CommWorld comm(3);
  Pool<BrokenWorker> pool(comm, 2);
  MWDriver driver(comm);
  driver.setMaxRetries(2);
  EXPECT_THROW((void)echoAll(driver, 1, 1), std::runtime_error);
  driver.shutdown();
}

TEST(FailureInjection, HealthyTasksUnaffectedByOneBadApple) {
  // One worker that always fails mixed with two healthy ones: the batch
  // still completes and the failures are absorbed as requeues.
  CommWorld comm(4);
  std::vector<std::unique_ptr<MWWorker>> objs;
  std::vector<std::thread> threads;
  objs.push_back(std::make_unique<BrokenWorker>(comm, 1));
  objs.push_back(std::make_unique<FlakyWorker>(comm, 2, 0));
  objs.push_back(std::make_unique<FlakyWorker>(comm, 3, 0));
  for (std::size_t i = 0; i < objs.size(); ++i) {
    threads.emplace_back([&objs, i] { objs[i]->run(); });
  }
  MWDriver driver(comm);
  driver.setMaxRetries(10);
  const auto results = echoAll(driver, 0, 30);
  for (std::int64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i);
  }
  driver.shutdown();
  for (auto& t : threads) t.join();
}

}  // namespace
