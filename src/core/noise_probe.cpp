#include "core/noise_probe.hpp"

#include <cmath>
#include <stdexcept>

#include "core/sampling_backend.hpp"

namespace sfopt::core {

NoiseProbe probeNoise(const noise::StochasticObjective& objective, const Point& x,
                      std::int64_t samples, std::uint64_t probeStream) {
  if (samples < 2) throw std::invalid_argument("probeNoise: need at least 2 samples");
  if (x.size() != objective.dimension()) {
    throw std::invalid_argument("probeNoise: dimension mismatch");
  }
  const stats::Welford w =
      foldEvalChunks(sampleEvalChunks(objective, {x, probeStream, 0, samples}));
  const double dt = objective.sampleDuration();
  NoiseProbe probe;
  probe.meanEstimate = w.mean();
  probe.sigma0Estimate = w.stddev() * std::sqrt(dt);
  probe.standardError = w.standardError();
  probe.samples = samples;
  probe.sampledTime = static_cast<double>(samples) * dt;
  return probe;
}

}  // namespace sfopt::core
