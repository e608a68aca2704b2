#include "placement.hpp"

#include <sched.h>

namespace jobbench {

std::vector<int> allowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pinThisThread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      pinThisThread(cpu);
      sched_param param{};
      (void)sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

}  // namespace jobbench
