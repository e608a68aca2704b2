#include "jobs.hpp"

#include <bit>
#include <type_traits>
#include <variant>

#include "core/algorithms.hpp"
#include "core/initial_simplex.hpp"

namespace jobbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

sfopt::service::JobSpec rosenbrockJob(Rng& rng, std::int64_t maxSamples) {
  sfopt::service::JobSpec spec;
  spec.objective.function = "rosenbrock";
  spec.objective.dim = 3;
  spec.objective.sigma0 = 10.0;
  spec.objective.seed = rng.next();
  spec.algorithm = "pc";
  spec.termination.tolerance = 0.0;
  spec.termination.maxSamples = maxSamples;
  sfopt::core::Point origin(3);
  for (double& v : origin) v = rng.uniform(-2.0, 2.0);
  spec.initial = sfopt::core::axisSimplexPoints(origin, rng.uniform(0.5, 1.5));
  return spec;
}

}  // namespace

std::vector<sfopt::service::JobSpec> rosenbrockJobs(std::uint64_t seed, std::size_t count,
                                                    std::int64_t maxSamples) {
  Rng rng(seed);
  std::vector<sfopt::service::JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) jobs.push_back(rosenbrockJob(rng, maxSamples));
  return jobs;
}

std::vector<sfopt::service::JobSpec> daemonJobs(std::uint64_t seed, std::size_t count) {
  // Short jobs finish in a handful of sampling rounds.  Long ones stop on
  // their sample budget, which takes them past the default 25-iteration
  // checkpoint interval, so the checkpoint writer sees traffic too.
  constexpr std::size_t kLongEvery = 8;
  Rng rng(seed ^ 0xDAE30ULL);
  std::vector<sfopt::service::JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bool isLong = i % kLongEvery == kLongEvery - 1;
    sfopt::service::JobSpec spec = rosenbrockJob(rng, isLong ? 60'000 : 4'000);
    if (isLong && (i / kLongEvery) % 2 == 0) {
      spec.shardMinSamples = 256;
      spec.speculate = true;
    }
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

sfopt::core::OptimizationResult runSolo(const sfopt::service::JobSpec& spec,
                                        const sfopt::noise::StochasticObjective& objective) {
  return std::visit(
      [&](const auto& o) -> sfopt::core::OptimizationResult {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, sfopt::core::DetOptions>) {
          return sfopt::core::runDeterministic(objective, spec.initial, o);
        } else if constexpr (std::is_same_v<T, sfopt::core::MaxNoiseOptions>) {
          return sfopt::core::runMaxNoise(objective, spec.initial, o);
        } else if constexpr (std::is_same_v<T, sfopt::core::AndersonOptions>) {
          return sfopt::core::runAnderson(objective, spec.initial, o);
        } else {
          return sfopt::core::runPointToPoint(objective, spec.initial, o);
        }
      },
      spec.makeOptions());
}

std::string resultMismatch(const sfopt::core::OptimizationResult& got,
                           const sfopt::core::OptimizationResult& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (got.iterations != want.iterations) return "iterations";
  if (got.totalSamples != want.totalSamples) return "totalSamples";
  if (bits(got.bestEstimate) != bits(want.bestEstimate)) return "bestEstimate";
  if (got.best.size() != want.best.size()) return "best.size";
  for (std::size_t i = 0; i < got.best.size(); ++i) {
    if (bits(got.best[i]) != bits(want.best[i])) return "best[" + std::to_string(i) + "]";
  }
  return "";
}

}  // namespace jobbench
