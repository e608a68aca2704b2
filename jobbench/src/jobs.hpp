#pragma once

// Seeded job streams and the result oracle.  Every workload receives only
// JobSpecs generated here from --seed; the reference result of each spec is
// computed in-process before the timed phase.

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "noise/stochastic_objective.hpp"
#include "service/job.hpp"

namespace jobbench {

/// splitmix64: a portable, seed-stable generator (std distributions are
/// implementation-defined, which would make the job stream host-dependent).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// Noisy-Rosenbrock d=3 PC jobs, sigma0 = 10, tolerance 0: each has its own
/// noise seed and start simplex and stops at `maxSamples`.
[[nodiscard]] std::vector<sfopt::service::JobSpec> rosenbrockJobs(std::uint64_t seed,
                                                                  std::size_t count,
                                                                  std::int64_t maxSamples);

/// The daemon's client mix: short jobs (4k-sample budget) with every 8th
/// one long (60k); half of the long ones shard their batches and speculate.
[[nodiscard]] std::vector<sfopt::service::JobSpec> daemonJobs(std::uint64_t seed,
                                                              std::size_t count);

/// Run a spec's algorithm in-process against `objective` (no backend).
[[nodiscard]] sfopt::core::OptimizationResult runSolo(
    const sfopt::service::JobSpec& spec, const sfopt::noise::StochasticObjective& objective);

/// Bitwise comparison of what the oracle checks: best point, estimate,
/// iterations and sample count.  Returns "" on a match, else what differs.
[[nodiscard]] std::string resultMismatch(const sfopt::core::OptimizationResult& got,
                                         const sfopt::core::OptimizationResult& want);

}  // namespace jobbench
