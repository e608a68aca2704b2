#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/sampling_backend.hpp"
#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "mw/vertex_server.hpp"
#include "noise/stochastic_objective.hpp"

namespace sfopt::mw {

/// The MW task of the optimization service — the MW framework's "data
/// describing the task and the results computed by the workers": "evaluate
/// `count` samples of the objective at x for noise stream vertexId,
/// starting at startIndex".  The input is marshaled on the master and
/// unmarshaled on the worker, and the result the other way round.  The
/// result travels as canonical per-chunk Welford moments
/// (core::kEvalChunkSamples), never pre-merged, so the master controls the
/// merge order and stays bitwise reproducible across shard counts, client
/// counts and completion orders.
class SamplingTask {
 public:
  SamplingTask() = default;
  explicit SamplingTask(core::SamplingBackend::BatchRequest request)
      : x_(request.x.begin(), request.x.end()),
        vertexId_(request.vertexId),
        startIndex_(request.startIndex),
        count_(request.count) {}

  void packInput(MessageBuffer& buf) const;
  void unpackInput(MessageBuffer& buf);
  void packResult(MessageBuffer& buf) const;
  void unpackResult(MessageBuffer& buf);

  [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }
  [[nodiscard]] std::uint64_t vertexId() const noexcept { return vertexId_; }
  [[nodiscard]] std::uint64_t startIndex() const noexcept { return startIndex_; }
  [[nodiscard]] std::int64_t count() const noexcept { return count_; }

  [[nodiscard]] const std::vector<stats::Welford>& chunks() const noexcept { return chunks_; }
  void setChunks(std::vector<stats::Welford> chunks) noexcept { chunks_ = std::move(chunks); }
  [[nodiscard]] std::vector<stats::Welford> releaseChunks() noexcept {
    return std::move(chunks_);
  }

 private:
  std::vector<double> x_;
  std::uint64_t vertexId_ = 0;
  std::uint64_t startIndex_ = 0;
  std::int64_t count_ = 0;
  std::vector<stats::Welford> chunks_;
};

/// The concrete MWWorker of the optimization service: unpacks a
/// SamplingTask, runs it through its VertexServer (which fans it out to
/// Ns clients), and packs the per-chunk moments back.
class SamplingWorker final : public MWWorker {
 public:
  SamplingWorker(net::Transport& comm, Rank rank, const noise::StochasticObjective& objective,
                 int clients);

  [[nodiscard]] const VertexServer& server() const noexcept { return server_; }

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override;

 private:
  VertexServer server_;
};

/// Bridges the optimization core to the MW runtime: every sampling batch
/// the algorithms request becomes a SamplingTask submitted through the
/// driver's submit/poll path, with chunk lists straight off the wire.  Plug
/// an instance into SamplingContext::Options::backend; its EvalScheduler
/// can then shard batches and run speculative rounds over the deployment.
class MWSamplingBackend final : public core::SamplingBackend {
 public:
  explicit MWSamplingBackend(MWDriver& driver) : driver_(driver) {}

  [[nodiscard]] std::uint64_t submit(const BatchRequest& request) override;
  [[nodiscard]] std::vector<Completion> poll(double timeoutSeconds) override;
  [[nodiscard]] int parallelism() const override;
  /// The driver's receive timeout (MWDriver::setRecvTimeout).
  [[nodiscard]] double silenceTimeoutSeconds() const override;

 private:
  MWDriver& driver_;
};

}  // namespace sfopt::mw
