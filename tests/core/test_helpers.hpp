#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/algorithms.hpp"
#include "core/initial_simplex.hpp"
#include "noise/noisy_function.hpp"
#include "testfunctions/functions.hpp"

namespace sfopt::test {

/// Noisy generalized Rosenbrock in `dim` dimensions.
inline noise::NoisyFunction noisyRosenbrock(std::size_t dim, double sigma0,
                                            std::uint64_t seed = 1234) {
  noise::NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.sampleDuration = 1.0;
  o.seed = seed;
  return noise::NoisyFunction(
      dim, [](std::span<const double> x) { return testfunctions::rosenbrock(x); }, o);
}

/// Noisy sphere in `dim` dimensions — the easiest convergence target.
inline noise::NoisyFunction noisySphere(std::size_t dim, double sigma0,
                                        std::uint64_t seed = 77) {
  noise::NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.sampleDuration = 1.0;
  o.seed = seed;
  return noise::NoisyFunction(
      dim, [](std::span<const double> x) { return testfunctions::sphere(x); }, o);
}

/// Noisy Powell (4-d).
inline noise::NoisyFunction noisyPowell(double sigma0, std::uint64_t seed = 55) {
  noise::NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.sampleDuration = 1.0;
  o.seed = seed;
  return noise::NoisyFunction(
      4, [](std::span<const double> x) { return testfunctions::powell(x); }, o);
}

/// True when two accumulators hold bit-identical moments.
inline bool sameMoments(const stats::Welford& a, const stats::Welford& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.count() == b.count() && bits(a.mean()) == bits(b.mean()) &&
         bits(a.sumSquaredDeviations()) == bits(b.sumSquaredDeviations());
}

/// True when two chunk-moment lists are bit-identical, chunk by chunk.
inline bool sameMoments(std::span<const stats::Welford> a, std::span<const stats::Welford> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sameMoments(a[i], b[i])) return false;
  }
  return true;
}

/// Deterministic initial simplex a moderate distance from the optimum.
inline std::vector<core::Point> simpleStart(std::size_t dim, double origin = -2.0,
                                            double scale = 1.0) {
  return core::axisSimplexPoints(core::Point(dim, origin), scale);
}

/// Random initial simplex via a reproducible stream.
inline std::vector<core::Point> randomStart(std::size_t dim, double lo, double hi,
                                            std::uint64_t seed, std::uint64_t stream) {
  noise::RngStream rng(seed, stream);
  return core::randomSimplexPoints(dim, lo, hi, rng);
}

}  // namespace sfopt::test
