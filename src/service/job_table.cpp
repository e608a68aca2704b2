#include "service/job_table.hpp"

#include <algorithm>
#include <utility>

namespace sfopt::service {

JobTable::JobTable(int maxConcurrent, int maxQueued)
    : maxConcurrent_(std::max(maxConcurrent, 1)), maxQueued_(std::max(maxQueued, 0)) {}

Admission JobTable::admit(JobSpec spec, int client, double now) {
  Admission a;
  // A job is admitted when it can run now (a concurrency slot is free) or
  // can wait (the queue has room); anything else is a retryable refusal.
  if (runningCount() >= maxConcurrent_ && queuedCount() >= maxQueued_) {
    a.retryable = true;
    a.message = "service at capacity (" + std::to_string(runningCount()) + " running, " +
                std::to_string(queuedCount()) + " queued); retry later";
    return a;
  }
  const std::uint64_t id = nextId_++;
  JobRecord rec;
  rec.id = id;
  rec.spec = std::move(spec);
  rec.state = JobState::Queued;
  rec.client = client;
  rec.submittedAt = now;
  jobs_.emplace(id, std::move(rec));
  a.accepted = true;
  a.jobId = id;
  a.message = "accepted";
  return a;
}

JobRecord* JobTable::find(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? &it->second : nullptr;
}

const FinishedRecord* JobTable::findFinished(std::uint64_t id) const {
  const auto it = finished_.find(id);
  return it != finished_.end() ? &it->second : nullptr;
}

JobRecord* JobTable::nextQueued() {
  for (auto& [id, rec] : jobs_) {
    if (rec.state == JobState::Queued) return &rec;
  }
  return nullptr;
}

void JobTable::finish(std::uint64_t id, FinishedRecord record) {
  jobs_.erase(id);
  finished_.insert_or_assign(id, std::move(record));
}

void JobTable::restore(JobRecord rec) {
  const std::uint64_t id = rec.id;
  jobs_.insert_or_assign(id, std::move(rec));
  if (id >= nextId_) nextId_ = id + 1;
}

void JobTable::setNextId(std::uint64_t next) noexcept {
  nextId_ = std::max(nextId_, next);
}

std::vector<std::uint64_t> JobTable::evictFinishedOver(std::size_t cap) {
  std::vector<std::uint64_t> evictedIds;
  // std::map iterates in ascending id order, so the front is the oldest.
  while (finished_.size() > cap) {
    const auto it = finished_.begin();
    markEvicted(it->first, it->second.state);
    evictedIds.push_back(it->first);
    finished_.erase(it);
  }
  return evictedIds;
}

std::optional<JobState> JobTable::evictedState(std::uint64_t id) const {
  if (id >= evicted_.size() || evicted_[id] == 0) return std::nullopt;
  return static_cast<JobState>(evicted_[id] - 1);
}

void JobTable::markEvicted(std::uint64_t id, JobState finalState) {
  if (id >= nextId_) nextId_ = id + 1;
  // Ids past the ticket namespace (jobTraceNamespace would overflow) only
  // come from a damaged journal; count them but do not size the index by
  // them.
  if (id >= (std::uint64_t{1} << (64 - kJobTraceShift))) {
    ++evictedCount_;
    return;
  }
  if (id >= evicted_.size()) evicted_.resize(id + 1, 0);
  if (evicted_[id] == 0) ++evictedCount_;
  evicted_[id] = static_cast<std::uint8_t>(static_cast<int>(finalState) + 1);
}

int JobTable::runningCount() const noexcept {
  int n = 0;
  for (const auto& [id, rec] : jobs_) n += rec.state == JobState::Running ? 1 : 0;
  return n;
}

int JobTable::queuedCount() const noexcept {
  int n = 0;
  for (const auto& [id, rec] : jobs_) n += rec.state == JobState::Queued ? 1 : 0;
  return n;
}

}  // namespace sfopt::service
