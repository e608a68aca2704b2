#pragma once

#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mw/mw_driver.hpp"

namespace sfopt::test {

/// Wait through MWDriver::poll until no task is outstanding and return
/// every completion, in completion order.  The silence rule is
/// EvalScheduler::collect's: the driver's receive timeout bounds the
/// stretch between completions, and only a completion restarts it.
/// Errors poll() raises (retry budget exhausted, every worker lost)
/// propagate.
inline std::vector<mw::MWDriver::Completion> waitAll(mw::MWDriver& driver) {
  using Clock = std::chrono::steady_clock;
  const auto window = std::chrono::duration<double>(driver.recvTimeout());
  std::vector<mw::MWDriver::Completion> all;
  auto deadline = Clock::now() + window;
  while (driver.outstanding() > 0) {
    const double remaining = std::chrono::duration<double>(deadline - Clock::now()).count();
    if (remaining <= 0.0) {
      throw std::runtime_error("waitAll: no completion within the receive timeout");
    }
    auto got = driver.poll(remaining);
    if (got.empty()) continue;
    for (auto& c : got) all.push_back(std::move(c));
    deadline = Clock::now() + window;
  }
  return all;
}

}  // namespace sfopt::test
