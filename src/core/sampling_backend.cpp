#include "core/sampling_backend.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "noise/stochastic_objective.hpp"

namespace sfopt::core {

std::vector<SamplingBackend::BatchRequest> splitEvalChunks(
    const SamplingBackend::BatchRequest& request, std::int64_t parts) {
  if (request.count < 0) throw std::invalid_argument("splitEvalChunks: negative count");
  if (parts < 1) throw std::invalid_argument("splitEvalChunks: parts must be >= 1");
  const std::int64_t chunks = evalChunkCount(request.count);
  const std::int64_t base = chunks / parts;
  const std::int64_t extra = chunks % parts;
  std::vector<SamplingBackend::BatchRequest> out;
  out.reserve(static_cast<std::size_t>(parts));
  std::int64_t offset = 0;  // samples handed out so far
  for (std::int64_t p = 0; p < parts; ++p) {
    const std::int64_t partChunks = base + (p < extra ? 1 : 0);
    const std::int64_t count =
        std::min(partChunks * kEvalChunkSamples, request.count - offset);
    out.push_back({request.x, request.vertexId,
                   request.startIndex + static_cast<std::uint64_t>(offset), count});
    offset += count;
  }
  return out;
}

std::vector<stats::Welford> sampleEvalChunks(const noise::StochasticObjective& objective,
                                             const SamplingBackend::BatchRequest& request) {
  if (request.count < 0) throw std::invalid_argument("sampleEvalChunks: negative count");
  std::vector<stats::Welford> chunks;
  chunks.reserve(static_cast<std::size_t>(evalChunkCount(request.count)));
  std::array<double, kEvalChunkSamples> buffer;
  for (std::int64_t first = 0; first < request.count; first += kEvalChunkSamples) {
    const std::int64_t take = std::min(request.count - first, kEvalChunkSamples);
    const std::uint64_t index = request.startIndex + static_cast<std::uint64_t>(first);
    for (std::int64_t i = 0; i < take; ++i) {
      buffer[static_cast<std::size_t>(i)] =
          objective.sample(request.x, {request.vertexId, index + static_cast<std::uint64_t>(i)});
    }
    chunks.push_back(accumulateEvalChunk({buffer.data(), static_cast<std::size_t>(take)}));
  }
  return chunks;
}

}  // namespace sfopt::core
