// Engine for Algorithm 1 (DET), Algorithm 2 (MN) and the Anderson-criterion
// variant: all three share the classical Nelder-Mead decision tree and
// differ only in the wait gate applied before the decisions.  Also home of
// runSimplex, the AlgorithmOptions dispatch over all four simplex variants.

#include <memory>
#include <type_traits>

#include "core/algorithms.hpp"
#include "core/engine_base.hpp"

namespace sfopt::core {

namespace {

enum class GateKind { None, MaxNoise, Anderson };

struct GateSpec {
  GateKind kind = GateKind::None;
  double a = 0.0;  // MN: k.  Anderson: k1.
  double b = 0.0;  // Anderson: k2.
  bool matchTrials = true;
  ResamplePolicy policy;
};

OptimizationResult runClassicTree(const noise::StochasticObjective& objective,
                                  std::span<const Point> initial, const CommonOptions& common,
                                  const GateSpec& gate) {
  detail::EngineBase eng(objective, common);
  const SimplexCoefficients& coef = common.coefficients;
  Simplex s = common.resumeFrom ? eng.buildFromCheckpoint(*common.resumeFrom)
                                : eng.buildInitialSimplex(initial);
  std::int64_t iter = common.resumeFrom ? common.resumeFrom->iteration : 0;
  TerminationReason reason = TerminationReason::IterationLimit;

  for (;;) {
    if (auto stop = eng.shouldStop(s, iter)) {
      reason = *stop;
      break;
    }
    const Simplex::Ordering o = s.ordering();
    const Point cent = s.centroidExcluding(o.max);

    // Reflection trial, optionally precision-matched to the simplex
    // vertices (it runs on its own worker, sampling continuously).
    const auto trialSamples = [&](const Simplex& sx) {
      return gate.matchTrials ? eng.matchedTrialSamples(sx)
                              : common.initialSamplesPerVertex;
    };
    auto ref = eng.createTrial(reflectPoint(cent, s.at(o.max).point(), coef.reflection),
                               trialSamples(s));

    // The wait gate (lines 4-6 of Algorithm 2): postpone the decision until
    // the vertex noise is small relative to the internal spread.  The
    // active reflection trial is co-sampled to stay precision-matched.
    Vertex* trials[] = {ref.get()};
    if (gate.kind == GateKind::MaxNoise) {
      detail::maxNoiseGateWait(eng, s, trials, gate.a, gate.policy);
    } else if (gate.kind == GateKind::Anderson) {
      detail::andersonGateWait(eng, s, trials, gate.a, gate.b, gate.policy);
    }

    MoveKind move;
    if (ref->mean() < s.at(o.min).mean()) {
      // Reflection beats the best vertex: attempt expansion.
      auto exp = eng.createTrial(expandPoint(ref->point(), cent, coef.expansion),
                                 trialSamples(s));
      if (exp->mean() < ref->mean()) {
        (void)s.replace(o.max, std::move(exp));
        s.noteExpansion();
        ++eng.counters().expansions;
        move = MoveKind::Expansion;
      } else {
        (void)s.replace(o.max, std::move(ref));
        ++eng.counters().reflections;
        move = MoveKind::Reflection;
      }
    } else if (ref->mean() < s.at(o.max).mean()) {
      (void)s.replace(o.max, std::move(ref));
      ++eng.counters().reflections;
      move = MoveKind::Reflection;
    } else {
      auto con = eng.createTrial(contractPoint(s.at(o.max).point(), cent, coef.contraction),
                                 trialSamples(s));
      if (con->mean() < s.at(o.max).mean()) {
        (void)s.replace(o.max, std::move(con));
        s.noteContraction();
        ++eng.counters().contractions;
        move = MoveKind::Contraction;
      } else {
        eng.collapse(s, o.min);
        move = MoveKind::Collapse;
      }
    }
    ++iter;
    eng.maybeRecord(s, move, iter);
    eng.maybeCheckpoint(s, iter);
  }
  return eng.finish(s, iter, reason);
}

}  // namespace

OptimizationResult runDeterministic(const noise::StochasticObjective& objective,
                                    std::span<const Point> initial, const DetOptions& options) {
  return runClassicTree(objective, initial, options.common, GateSpec{});
}

OptimizationResult runMaxNoise(const noise::StochasticObjective& objective,
                               std::span<const Point> initial, const MaxNoiseOptions& options) {
  GateSpec gate;
  gate.kind = GateKind::MaxNoise;
  gate.a = options.k;
  gate.matchTrials = options.matchTrialPrecision;
  gate.policy = options.resample;
  return runClassicTree(objective, initial, options.common, gate);
}

OptimizationResult runAnderson(const noise::StochasticObjective& objective,
                               std::span<const Point> initial, const AndersonOptions& options) {
  GateSpec gate;
  gate.kind = GateKind::Anderson;
  gate.a = options.k1;
  gate.b = options.k2;
  gate.policy = options.resample;
  return runClassicTree(objective, initial, options.common, gate);
}

OptimizationResult runSimplex(const noise::StochasticObjective& objective,
                              std::span<const Point> initial, const AlgorithmOptions& options) {
  return std::visit(
      [&](const auto& o) {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, DetOptions>) {
          return runDeterministic(objective, initial, o);
        } else if constexpr (std::is_same_v<T, MaxNoiseOptions>) {
          return runMaxNoise(objective, initial, o);
        } else if constexpr (std::is_same_v<T, AndersonOptions>) {
          return runAnderson(objective, initial, o);
        } else {
          return runPointToPoint(objective, initial, o);
        }
      },
      options);
}

}  // namespace sfopt::core
