#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <variant>

#include "core/checkpoint.hpp"
#include "core/condition_mask.hpp"
#include "core/point.hpp"
#include "core/result.hpp"
#include "core/sampling_context.hpp"
#include "core/simplex.hpp"
#include "core/termination.hpp"
#include "noise/stochastic_objective.hpp"

namespace sfopt::telemetry {
class Telemetry;
}

namespace sfopt::core {

/// Options common to every simplex variant.
struct CommonOptions {
  TerminationCriteria termination;
  /// Observability spine (non-owning; must outlive the run).  When set the
  /// engine pre-registers its metric handles, emits per-iteration spans
  /// and gate-stall/comparison histograms, and stamps per-step wall times
  /// from the telemetry clock.  nullptr = uninstrumented.
  telemetry::Telemetry* telemetry = nullptr;
  SimplexCoefficients coefficients;
  /// Samples taken when a vertex is first created.  The deterministic
  /// algorithm traditionally takes 1 (a single noisy evaluation); the
  /// stochastic variants need >= 2 so an estimated sigma exists.
  std::int64_t initialSamplesPerVertex = 2;
  /// Record a StepRecord per iteration into the result's trace.
  bool recordTrace = false;
  /// Resume from a snapshot instead of building the initial simplex; the
  /// `initial` points argument is ignored when set.  Non-owning: the
  /// checkpoint must outlive the run.  The continuation is exactly the
  /// interrupted run's (noise draws are keyed, not stateful).
  const SimplexCheckpoint* resumeFrom = nullptr;
  /// Snapshot cadence: every `checkpointEvery` iterations the sink is
  /// called with the current state (0 disables).
  std::int64_t checkpointEvery = 0;
  std::function<void(const SimplexCheckpoint&)> checkpointSink;
  SamplingContext::Options sampling;
};

/// Classical deterministic Nelder-Mead applied to the noisy objective
/// (the paper's Algorithm 1, "DET"): decisions use whatever the current
/// sample means happen to say.
struct DetOptions {
  DetOptions() { common.initialSamplesPerVertex = 1; }
  CommonOptions common;
};

/// Policy for the extra-sampling loops (the MN wait gate and the PC
/// resample loops): block sizes grow geometrically so that deep waits cost
/// O(log) decision rounds rather than one round per sample.
struct ResamplePolicy {
  std::int64_t initialBlock = 2;
  std::int64_t maxBlock = 1 << 16;
  double growth = 2.0;
  /// PC only: cap on resample rounds spent on a single unresolved
  /// comparison before it is forcibly resolved by the plain means.  This
  /// bounds the paper's acknowledged hazard (section 2.3) of two
  /// coincidentally near-identical vertices soaking up unbounded sampling
  /// even though "the eventual result may not depend strongly on the
  /// outcome".  <= 0 disables the cap.
  std::int64_t maxRoundsPerComparison = 0;
};

/// Max-noise algorithm (Algorithm 2, "MN"): before each simplex decision,
/// wait (sample all vertices concurrently) until
///   max_i sigma_i(t_i)^2  <=  k * internalVariance
/// where internalVariance is the variance of the vertex values around
/// their mean (eq. 2.3's "internal variance of the vertices themselves").
struct MaxNoiseOptions {
  CommonOptions common;
  double k = 2.0;
  /// Create trial vertices precision-matched to the most-sampled simplex
  /// vertex (see PCOptions::matchTrialPrecision).  When off, trials start
  /// from initialSamplesPerVertex and gain samples only through the wait
  /// gate's co-sampling — the literal reading of Algorithm 2, whose gate
  /// constrains vertex noise but says nothing about trial precision.
  bool matchTrialPrecision = true;
  ResamplePolicy resample;
};

/// Anderson et al. comparison criterion (eq. 2.4): wait until every vertex
/// satisfies sigma_i(t_i)^2 < k1 * 2^{-l (1 + k2)} where l is the simplex
/// contraction level.  The paper evaluates k1 in {2^0, 2^10, 2^20, 2^30}
/// with k2 = 0.
struct AndersonOptions {
  CommonOptions common;
  double k1 = 1.0;
  double k2 = 0.0;
  ResamplePolicy resample;
};

/// Point-to-point comparison algorithm (Algorithm 3, "PC"), optionally
/// combined with the max-noise gate (Algorithm 4, "PC+MN").
///
/// Interpretation note (documented deviation): as printed, condition 5 is
/// the literal complement of condition 1, which would make the "resample
/// until condition 1 or 5" branch unreachable.  We implement the clearly
/// intended symmetric-confidence semantics: c1 fires when the reflection is
/// confidently below the second-highest (intervals separated downward), c5
/// when it is confidently above-or-equal (separated upward), and
/// overlapping intervals trigger resampling.  The same symmetric reading
/// applies to the c3/c4 and c6/c7 pairs.
struct PCOptions {
  PCOptions() {
    // PC decisions hinge on estimated sigmas, so vertices start with a
    // sane floor of samples, and the per-comparison resample spiral (the
    // section 2.3 near-identical-vertices hazard) is bounded by default.
    common.initialSamplesPerVertex = 32;
    resample.maxRoundsPerComparison = 9;
  }
  CommonOptions common;
  /// Confidence width multiplier: comparisons require a separation of
  /// k * sigma on each side (the paper studies k = 1 and k = 2).
  double k = 1.0;
  /// Which of the seven conditions are noise-aware (section 3.3 ablations).
  PCConditionMask mask = PCConditionMask::all();
  /// Enable the max-noise wait gate as well (PC+MN, Algorithm 4).
  bool maxNoiseGate = false;
  /// Gate constant for PC+MN.
  double gateK = 2.0;
  /// A noise-aware comparison refuses to resolve until both vertices carry
  /// at least this many samples: the Welford standard error of a 2-sample
  /// estimate is far too fat-tailed to hang a k-sigma decision on, and
  /// trusting it produces confidently-wrong moves.
  std::int64_t minSamplesForConfidence = 8;
  /// Create trial vertices precision-matched to the most-sampled simplex
  /// vertex (the d+3-worker architecture samples trials continuously), so
  /// comparisons start from comparable intervals instead of a 2-sample
  /// fresh estimate against a heavily sampled incumbent.
  bool matchTrialPrecision = true;
  ResamplePolicy resample;
};

/// Run the deterministic simplex (DET) from the given initial points
/// (exactly dimension+1 of them).
[[nodiscard]] OptimizationResult runDeterministic(const noise::StochasticObjective& objective,
                                                  std::span<const Point> initial,
                                                  const DetOptions& options = {});

/// Run the max-noise algorithm (MN).
[[nodiscard]] OptimizationResult runMaxNoise(const noise::StochasticObjective& objective,
                                             std::span<const Point> initial,
                                             const MaxNoiseOptions& options = {});

/// Run the simplex with the Anderson sampling criterion.
[[nodiscard]] OptimizationResult runAnderson(const noise::StochasticObjective& objective,
                                             std::span<const Point> initial,
                                             const AndersonOptions& options = {});

/// Run the point-to-point comparison algorithm (PC), or PC+MN when
/// options.maxNoiseGate is set.
[[nodiscard]] OptimizationResult runPointToPoint(const noise::StochasticObjective& objective,
                                                 std::span<const Point> initial,
                                                 const PCOptions& options = {});

/// Convenience: PC+MN (Algorithm 4) with the given base options.
[[nodiscard]] OptimizationResult runPointToPointWithMaxNoise(
    const noise::StochasticObjective& objective, std::span<const Point> initial,
    PCOptions options = {});

/// Any of the four simplex variants, selected by its options type.
using AlgorithmOptions = std::variant<DetOptions, MaxNoiseOptions, AndersonOptions, PCOptions>;

/// The options every variant shares, whichever variant `options` holds.
[[nodiscard]] inline CommonOptions& commonOptions(AlgorithmOptions& options) {
  return std::visit([](auto& o) -> CommonOptions& { return o.common; }, options);
}

/// Run the simplex variant `options` selects: the one dispatch from
/// AlgorithmOptions to runDeterministic / runMaxNoise / runAnderson /
/// runPointToPoint.
[[nodiscard]] OptimizationResult runSimplex(const noise::StochasticObjective& objective,
                                            std::span<const Point> initial,
                                            const AlgorithmOptions& options);

}  // namespace sfopt::core
