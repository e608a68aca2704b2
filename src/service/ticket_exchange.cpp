#include "service/ticket_exchange.hpp"

#include <algorithm>
#include <chrono>
#include <utility>


namespace sfopt::service {

void TicketExchange::openJob(std::uint64_t jobId, int priority) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto channel = std::make_unique<Channel>();
  channel->priority = std::clamp(priority, 1, 100);
  jobs_.emplace(jobId, std::move(channel));
}

void TicketExchange::closeJob(std::uint64_t jobId) {
  const std::lock_guard<std::mutex> lock(mutex_);
  jobs_.erase(jobId);
}

TicketExchange::Channel& TicketExchange::channelOrThrow(std::uint64_t jobId) {
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) {
    throw JobAborted("job " + std::to_string(jobId) + " is closed", false);
  }
  Channel& ch = *it->second;
  if (ch.aborted) throw JobAborted(ch.reason, ch.cancelled);
  return ch;
}

std::uint64_t TicketExchange::submit(std::uint64_t jobId, mw::MessageBuffer input) {
  std::uint64_t ticket = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Channel& ch = channelOrThrow(jobId);
    ticket = jobTraceNamespace(jobId) | nextSequence_++;
    ch.pending.push_back(PendingShard{jobId, ticket, std::move(input)});
  }
  if (onSubmit_) onSubmit_();
  return ticket;
}

std::vector<TicketExchange::Completion> TicketExchange::poll(std::uint64_t jobId,
                                                             double timeoutSeconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) {
    throw JobAborted("job " + std::to_string(jobId) + " is closed", false);
  }
  Channel& ch = *it->second;
  const auto ready = [&ch] { return ch.aborted || !ch.done.empty(); };
  if (!ready() && timeoutSeconds > 0.0) {
    ch.cv.wait_for(lock, std::chrono::duration<double>(timeoutSeconds), ready);
  }
  if (ch.aborted) throw JobAborted(ch.reason, ch.cancelled);
  std::vector<Completion> out(std::make_move_iterator(ch.done.begin()),
                              std::make_move_iterator(ch.done.end()));
  ch.done.clear();
  return out;
}

bool TicketExchange::deliver(std::uint64_t jobId, std::uint64_t ticket,
                             std::vector<stats::Welford> chunks) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return false;  // late completion for a finished job
  it->second->done.push_back(Completion{ticket, std::move(chunks)});
  it->second->cv.notify_all();
  return true;
}

void TicketExchange::abort(std::uint64_t jobId, const std::string& reason, bool cancelled) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return;
  Channel& ch = *it->second;
  if (ch.aborted) return;
  ch.aborted = true;
  ch.cancelled = cancelled;
  ch.reason = reason;
  ch.cv.notify_all();
}

std::vector<TicketExchange::PendingShard> TicketExchange::drainPending(
    std::size_t maxShards) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PendingShard> out;
  if (jobs_.empty() || maxShards == 0) return out;
  // Up to `priority` shards per job per cycle, resuming after the job the
  // previous drain stopped at.  Every job with pending work is visited
  // every cycle, so a shard-heavy or high-priority job cannot starve its
  // neighbours — it only gets a proportionally bigger slice.
  bool progressed = true;
  while (out.size() < maxShards && progressed) {
    progressed = false;
    for (std::size_t step = 0; step < jobs_.size() && out.size() < maxShards; ++step) {
      auto it = jobs_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>((cursor_ + step) % jobs_.size()));
      Channel& ch = *it->second;
      for (int q = 0; q < ch.priority && !ch.pending.empty() && out.size() < maxShards; ++q) {
        out.push_back(std::move(ch.pending.front()));
        ch.pending.pop_front();
        progressed = true;
      }
    }
    cursor_ = jobs_.empty() ? 0 : (cursor_ + 1) % jobs_.size();
  }
  return out;
}

std::size_t TicketExchange::pendingShards() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, ch] : jobs_) n += ch->pending.size();
  return n;
}

std::uint64_t ExchangeBackend::submit(const BatchRequest& request) {
  mw::MessageBuffer buf;
  packServiceTaskInput(buf, jobId_, spec_, request);
  return exchange_.submit(jobId_, std::move(buf));
}

std::vector<core::SamplingBackend::Completion> ExchangeBackend::poll(double timeoutSeconds) {
  return exchange_.poll(jobId_, timeoutSeconds);
}

int ExchangeBackend::parallelism() const { return std::max(exchange_.parallelism(), 1); }

}  // namespace sfopt::service
