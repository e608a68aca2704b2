#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace jobbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peakRssMb();

/// Host block: numbers from hosts with a different CPU count, model or
/// SIMD level are not comparable, so every report starts with these.
void printHost(std::ostream& out);

/// One ledger line: a layer's work count and its busy, wait and self
/// seconds.  A negative field is printed as "-" (not measured there).
struct LedgerRow {
  std::string layer;
  double count = -1.0;
  double busy = -1.0;
  double wait = -1.0;
  double self = -1.0;
};

void printLedger(std::ostream& out, const std::string& workload,
                 const std::vector<LedgerRow>& rows);

/// The contract's last stdout line.
[[nodiscard]] std::string resultJson(bool correct, std::uint64_t attempted,
                                     std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace jobbench
