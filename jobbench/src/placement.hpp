#pragma once

// Where the benchmark's threads run.  The hosts this runs on are shared VMs:
// a wake-up sent to a vCPU that has halted is delivered by the hypervisor,
// at a latency set by the rest of the host's load.  So every thread is
// pinned, and a CPU that must answer wake-ups across CPUs is kept from
// halting by an idle-priority spinner.

#include <atomic>
#include <thread>
#include <vector>

namespace jobbench {

/// The CPUs this process may run on, ascending (empty if unknown).
[[nodiscard]] std::vector<int> allowedCpus();

/// Pin the calling thread (and the threads it creates later) to `cpu`.
bool pinThisThread(int cpu);

/// One SCHED_IDLE busy-loop thread per CPU while alive.  A spinner yields at
/// once to any ordinary thread that becomes runnable on its CPU, so the
/// benchmark's threads lose next to no time to it, and it keeps the vCPU
/// from halting while they wait on each other.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace jobbench
