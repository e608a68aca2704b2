#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simd/dispatch.hpp"
#include "stats/welford.hpp"

namespace sfopt::noise {
class StochasticObjective;
}

namespace sfopt::core {

/// Canonical evaluation chunk size (samples).  Backends report batch
/// results as per-chunk Welford moments on a fixed grid relative to the
/// request's startIndex: chunk j covers sample indices
/// [startIndex + 64 j, startIndex + 64 (j+1)) (the last chunk may be
/// partial).  Because Welford merging is not associative in floating
/// point, the chunk grid — not the shard or client split — defines the
/// merge tree: the master folds a batch's chunks left-to-right, so the
/// merged moments are bitwise independent of how the work was sharded
/// across workers, how many clients each worker ran, and in which order
/// shards completed.
///
/// Canonical-moment contract.  Two reductions, and only these two, define
/// a batch's moments; every producer and consumer must go through them so
/// alternative accumulation modes (SIMD lanes today, bf16 or pairwise
/// trees tomorrow) cannot silently diverge from each other:
///
///  1. Chunk interior: accumulateEvalChunk() turns the chunk's sample
///     stream into moments.  It dispatches on the active SIMD ISA; the
///     scalar ISA is the sequential Welford::add stream bit for bit, and
///     each vector ISA pins a canonical lane order, so a chunk's moments
///     are a pure function of (samples, active ISA).
///  2. Batch fold: foldEvalChunks() merges a batch's chunk moments
///     left-to-right in chunk-index order.
///
/// Every run mode draws its samples through sampleEvalChunks() (below) and
/// cuts batches across shards or clients with splitEvalChunks(), so the
/// inline path, every backend and every worker-side client pool produce
/// the same chunks, and the same folded moments, bit for bit.
inline constexpr std::int64_t kEvalChunkSamples = 64;

/// Number of chunks a batch of `count` samples decomposes into.
[[nodiscard]] constexpr std::int64_t evalChunkCount(std::int64_t count) noexcept {
  return (count + kEvalChunkSamples - 1) / kEvalChunkSamples;
}

/// Accumulate the sample stream of ONE canonical chunk into Welford
/// moments (contract step 1).  THE chunk-interior accumulator everybody
/// must use; see the canonical-moment contract above.
[[nodiscard]] inline stats::Welford accumulateEvalChunk(std::span<const double> samples) {
  return simd::welfordChunk(samples);
}

/// Fold a batch's chunk moments in canonical (index) order (contract
/// step 2).  This is THE merge everybody must use so results stay bitwise
/// reproducible.
[[nodiscard]] inline stats::Welford foldEvalChunks(std::span<const stats::Welford> chunks) {
  stats::Welford merged;
  for (const stats::Welford& c : chunks) merged.merge(c);
  return merged;
}

/// Where the raw objective samples are computed.
///
/// The default (no backend) draws them inline on the calling thread with
/// sampleEvalChunks().  A backend is a ticketed evaluation fabric:
/// submit() hands a batch over and returns immediately; poll() delivers
/// whatever completed since the last call.  Results arrive as canonical chunk moments (see
/// kEvalChunkSamples), never pre-merged, so the caller (EvalScheduler)
/// owns the merge order.  Submitted batches may complete in any order.
/// Because every sample is keyed by (vertexId, sampleIndex) through the
/// counter-based RNG, the merged estimate is bitwise identical no matter
/// which backend computed it or in which order — the property the
/// integration tests pin down.
class SamplingBackend {
 public:
  struct BatchRequest {
    std::span<const double> x;      ///< evaluation point
    std::uint64_t vertexId = 0;     ///< noise-stream id
    std::uint64_t startIndex = 0;   ///< first sample index in the batch
    std::int64_t count = 0;         ///< number of samples to draw
  };

  struct Completion {
    std::uint64_t ticket = 0;
    std::vector<stats::Welford> chunks;  ///< canonical chunk moments, in index order
  };

  virtual ~SamplingBackend() = default;

  /// Enqueue one batch; returns a ticket its completion will carry.
  [[nodiscard]] virtual std::uint64_t submit(const BatchRequest& request) = 0;

  /// Wait up to `timeoutSeconds` for at least one completion (0 = just
  /// drain what is already available).  Returns every completion ready at
  /// that point; empty on timeout or when nothing is outstanding.
  [[nodiscard]] virtual std::vector<Completion> poll(double timeoutSeconds) = 0;

  /// How many batches the fabric can usefully run at once (live workers
  /// for the MW backend).  Used to size shards; always >= 1.
  [[nodiscard]] virtual int parallelism() const = 0;

  /// Longest stretch without a completion the caller tolerates while
  /// results are outstanding before it declares the fabric wedged.  The
  /// backstop, not the detector: transports report dead workers first.
  [[nodiscard]] virtual double silenceTimeoutSeconds() const = 0;
};

/// Cut `request` into `parts` contiguous, chunk-aligned requests: whole
/// chunks are handed out in order and the first (chunks % parts) parts
/// take one extra chunk, so only the last loaded part can end on a partial
/// chunk.  Parts past the chunk count are empty (count 0).  Concatenating
/// the parts' sampleEvalChunks() results in order gives the request's own.
[[nodiscard]] std::vector<SamplingBackend::BatchRequest> splitEvalChunks(
    const SamplingBackend::BatchRequest& request, std::int64_t parts);

/// Draw `request`'s samples from `objective` and return their canonical
/// chunk moments, in index order (chunks are relative to
/// request.startIndex).  THE sampling loop: every run mode goes through it.
[[nodiscard]] std::vector<stats::Welford> sampleEvalChunks(
    const noise::StochasticObjective& objective, const SamplingBackend::BatchRequest& request);

}  // namespace sfopt::core
