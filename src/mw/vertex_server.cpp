#include "mw/vertex_server.hpp"

#include <stdexcept>

namespace sfopt::mw {

VertexServer::VertexServer(const noise::StochasticObjective& objective, int clients)
    : objective_(objective) {
  if (clients < 1) throw std::invalid_argument("VertexServer: clients must be >= 1");
  const auto n = static_cast<std::size_t>(clients);
  jobs_.resize(n);
  partialChunks_.resize(n);
  clientSamples_.assign(n, 0);
  clients_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    clients_.emplace_back([this, i] { clientLoop(i); });
  }
}

VertexServer::~VertexServer() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  jobReady_.notify_all();
  for (auto& t : clients_) t.join();
}

std::vector<stats::Welford> VertexServer::runBatchChunks(
    const core::SamplingBackend::BatchRequest& request) {
  if (request.count == 0) return {};
  std::unique_lock lock(mutex_);
  jobs_ = core::splitEvalChunks(request, static_cast<std::int64_t>(clients_.size()));
  ++generation_;
  remaining_ = static_cast<int>(clients_.size());
  jobReady_.notify_all();
  jobDone_.wait(lock, [this] { return remaining_ == 0; });
  std::vector<stats::Welford> chunks;
  chunks.reserve(static_cast<std::size_t>(core::evalChunkCount(request.count)));
  for (const auto& part : partialChunks_) {
    chunks.insert(chunks.end(), part.begin(), part.end());
  }
  return chunks;
}

void VertexServer::clientLoop(std::size_t clientIndex) {
  std::uint64_t seen = 0;
  for (;;) {
    core::SamplingBackend::BatchRequest job;
    {
      std::unique_lock lock(mutex_);
      jobReady_.wait(lock, [&] { return stopping_ || generation_ > seen; });
      if (stopping_) return;
      seen = generation_;
      job = jobs_[clientIndex];
    }
    // The "simulation": sample the objective outside the lock.
    std::vector<stats::Welford> chunks = core::sampleEvalChunks(objective_, job);
    {
      std::lock_guard lock(mutex_);
      partialChunks_[clientIndex] = std::move(chunks);
      clientSamples_[clientIndex] += job.count;
      if (--remaining_ == 0) jobDone_.notify_all();
    }
  }
}

std::vector<std::int64_t> VertexServer::clientSampleCounts() const {
  std::lock_guard lock(mutex_);
  return clientSamples_;
}

}  // namespace sfopt::mw
