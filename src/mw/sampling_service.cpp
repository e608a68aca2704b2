#include "mw/sampling_service.hpp"

#include <algorithm>

namespace sfopt::mw {

void SamplingTask::packInput(MessageBuffer& buf) const {
  buf.pack(std::span<const double>(x_));
  buf.pack(vertexId_);
  buf.pack(startIndex_);
  buf.pack(count_);
}

void SamplingTask::unpackInput(MessageBuffer& buf) {
  x_ = buf.unpackDoubleVector();
  vertexId_ = buf.unpackUint64();
  startIndex_ = buf.unpackUint64();
  count_ = buf.unpackInt64();
}

void SamplingTask::packResult(MessageBuffer& buf) const {
  buf.pack(static_cast<std::int64_t>(chunks_.size()));
  for (const stats::Welford& c : chunks_) {
    buf.pack(c.count());
    buf.pack(c.mean());
    buf.pack(c.sumSquaredDeviations());
  }
}

void SamplingTask::unpackResult(MessageBuffer& buf) {
  const std::int64_t n = buf.unpackInt64();
  chunks_.clear();
  chunks_.reserve(static_cast<std::size_t>(std::max<std::int64_t>(n, 0)));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t count = buf.unpackInt64();
    const double mean = buf.unpackDouble();
    const double m2 = buf.unpackDouble();
    chunks_.push_back(stats::Welford::fromMoments(count, mean, m2));
  }
}

SamplingWorker::SamplingWorker(net::Transport& comm, Rank rank,
                               const noise::StochasticObjective& objective, int clients)
    : MWWorker(comm, rank), server_(objective, clients) {}

void SamplingWorker::executeTask(MessageBuffer& in, MessageBuffer& out) {
  SamplingTask task;
  task.unpackInput(in);
  const core::SamplingBackend::BatchRequest req{task.x(), task.vertexId(), task.startIndex(),
                                                task.count()};
  task.setChunks(server_.runBatchChunks(req));
  task.packResult(out);
}

std::uint64_t MWSamplingBackend::submit(const BatchRequest& request) {
  MessageBuffer buf;
  SamplingTask(request).packInput(buf);
  return driver_.submit(std::move(buf));
}

std::vector<core::SamplingBackend::Completion> MWSamplingBackend::poll(double timeoutSeconds) {
  auto done = driver_.poll(timeoutSeconds);
  std::vector<Completion> out;
  out.reserve(done.size());
  for (auto& c : done) {
    SamplingTask task;
    task.unpackResult(c.payload);
    out.push_back(Completion{c.id, task.releaseChunks()});
  }
  return out;
}

int MWSamplingBackend::parallelism() const {
  return std::max(driver_.liveWorkerCount(), 1);
}

double MWSamplingBackend::silenceTimeoutSeconds() const { return driver_.recvTimeout(); }

}  // namespace sfopt::mw
