#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sampling_backend.hpp"
#include "noise/stochastic_objective.hpp"
#include "stats/welford.hpp"

namespace sfopt::mw {

/// The vertex-level tier of the paper's architecture (section 4.3): each
/// MW worker is paired with a *server* that coordinates Ns *client*
/// processes, each running one sampling simulation.  "Each vertex has one
/// server process running and Ns client processes ... the server process
/// communicates with the client processes and coordinates the start and
/// end of each simulation."
///
/// Here clients are persistent threads fed through a small work queue;
/// a sampling batch is split into Ns contiguous, chunk-aligned index ranges
/// (core::splitEvalChunks), and each client draws its range through
/// core::sampleEvalChunks, so results are independent of scheduling
/// (counter-based RNG keys) and of the client count.
class VertexServer {
 public:
  VertexServer(const noise::StochasticObjective& objective, int clients);
  ~VertexServer();

  VertexServer(const VertexServer&) = delete;
  VertexServer& operator=(const VertexServer&) = delete;

  /// Run one sampling batch and return its canonical per-chunk moments
  /// (see core::kEvalChunkSamples): whole chunks are handed out
  /// contiguously across the Ns clients, so the result is exactly
  /// core::sampleEvalChunks(objective, request) no matter how many clients
  /// computed the batch.  Blocking; safe to call repeatedly.
  [[nodiscard]] std::vector<stats::Welford> runBatchChunks(
      const core::SamplingBackend::BatchRequest& request);

  [[nodiscard]] int clientCount() const noexcept { return static_cast<int>(clients_.size()); }

  /// Total samples computed by each client (diagnostics / load balance).
  [[nodiscard]] std::vector<std::int64_t> clientSampleCounts() const;

 private:
  void clientLoop(std::size_t clientIndex);

  const noise::StochasticObjective& objective_;

  mutable std::mutex mutex_;
  std::condition_variable jobReady_;
  std::condition_variable jobDone_;
  // One job slot per client per batch; generation counter sequences batches.
  // A job's point is a view of the caller's request, which runBatchChunks
  // keeps alive until every client has finished.
  std::vector<core::SamplingBackend::BatchRequest> jobs_;
  std::vector<std::vector<stats::Welford>> partialChunks_;
  std::vector<std::int64_t> clientSamples_;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> clients_;
};

}  // namespace sfopt::mw
