// TcpCommWorld::wake(): the cross-thread doorbell the service's job threads
// ring so the daemon stops waiting the moment there is work.  A wake must
// end pump() early, must not be lost when it lands outside a pump, and must
// never end a receive early — MWDriver reads an empty receive window as a
// silent fabric.

#include "net/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"

namespace {

using namespace sfopt;
using namespace sfopt::net;
using namespace std::chrono_literals;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(CommWake, WakeFromAnotherThreadEndsABlockedPump) {
  TcpCommWorld master(0);
  // The pump slice is 0.2 s; the wake lands 20 ms in.
  std::thread waker([&] {
    std::this_thread::sleep_for(20ms);
    master.wake();
  });
  const auto t0 = std::chrono::steady_clock::now();
  master.pump(0.2);
  const double waited = secondsSince(t0);
  waker.join();
  EXPECT_LT(waited, 0.15);
}

TEST(CommWake, WakeBeforePumpIsNotLost) {
  TcpCommWorld master(0);
  master.wake();
  auto t0 = std::chrono::steady_clock::now();
  master.pump(0.2);
  EXPECT_LT(secondsSince(t0), 0.1);

  // Consumed: the next pump waits out its slice.
  t0 = std::chrono::steady_clock::now();
  master.pump(0.05);
  EXPECT_GE(secondsSince(t0), 0.04);
}

TEST(CommWake, WakeDrainedByAReceiveStillEndsTheNextPump) {
  TcpCommWorld master(0);
  master.wake();
  // The receive polls the wake fd and drains it, but must not return early
  // on it: an empty window means "no message for this long".
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(master.recvFor(0, 0.1).has_value());
  EXPECT_GE(secondsSince(t0), 0.09);
  // The drained wake is remembered for the pump it was meant for.
  t0 = std::chrono::steady_clock::now();
  master.pump(0.2);
  EXPECT_LT(secondsSince(t0), 0.1);
}

/// Answers each task with its input after a fixed delay.
class SlowEchoWorker final : public mw::MWWorker {
 public:
  SlowEchoWorker(Transport& comm, Rank rank, std::chrono::milliseconds delay)
      : MWWorker(comm, rank), delay_(delay) {}

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    std::this_thread::sleep_for(delay_);
    out.pack(in.unpackInt64());
  }

 private:
  std::chrono::milliseconds delay_;
};

TEST(CommWake, WakesDuringDrainAreNotReadAsFabricSilence) {
  TcpCommWorld master(0);
  std::thread worker([port = master.port()] {
    try {
      TcpWorkerTransport transport("127.0.0.1", port);
      SlowEchoWorker w(transport, transport.rank(), 300ms);
      w.run();
    } catch (const ConnectionLost&) {
    }
  });
  (void)master.waitForWorkers(1, 10.0);

  mw::MWDriver driver(master);
  // Wakes land every 5 ms of the 300 ms task.  A receive that returned
  // early on one would end poll()'s wait with nothing, as if the fabric
  // had gone silent; the 2 s window itself is never reached.
  mw::MessageBuffer input;
  input.pack(std::int64_t{42});
  (void)driver.submit(std::move(input));

  std::atomic<bool> done{false};
  std::thread waker([&] {
    while (!done.load()) {
      master.wake();
      std::this_thread::sleep_for(5ms);
    }
  });
  std::vector<mw::MWDriver::Completion> got = driver.poll(2.0);
  done.store(true);
  waker.join();
  driver.shutdown();
  worker.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload.unpackInt64(), 42);
}

}  // namespace
