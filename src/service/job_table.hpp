#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "service/job.hpp"

namespace sfopt::service {

/// Per-job daemon state of a queued or running job.  Owned and mutated by
/// the daemon thread only; job engine threads communicate exclusively
/// through the TicketExchange and the service's finished queue.
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::Queued;
  int client = -1;  ///< submitting client id (sendToClient target); -1 = detached
  std::thread thread;  ///< running engine thread; joined by the reaper
  double submittedAt = 0.0;
  double startedAt = 0.0;
  /// Snapshot recovered from the durable state dir; the engine resumes
  /// from it instead of the initial simplex when the job is promoted.
  std::optional<core::SimplexCheckpoint> resume;
};

/// What the table keeps of a terminal job: the answer to `status` and
/// `result`, and nothing else — no spec, snapshot or thread.
struct FinishedRecord {
  JobState state = JobState::Failed;  ///< Done, Cancelled or Failed
  std::string error;
  std::optional<JobOutcome> outcome;  ///< present when state == Done
};

/// Admission verdict for one JobSubmit.
struct Admission {
  bool accepted = false;
  bool retryable = false;  ///< refusal was load-based; client may retry
  std::uint64_t jobId = 0;
  std::string message;
};

/// The daemon's job registry with admission control: at most
/// `maxConcurrent` jobs run at once and at most `maxQueued` wait behind
/// them; submissions beyond that are refused with a retryable status
/// instead of being parked forever or crashing the daemon.
///
/// Three tiers, so every count and lookup the daemon loop makes per pass
/// costs O(queued + running), however long the daemon has lived:
///  - active: queued and running jobs, as full JobRecords;
///  - finished: retained terminal jobs, as compact FinishedRecords;
///  - evicted: the final state of jobs retention dropped, one byte per id.
class JobTable {
 public:
  JobTable(int maxConcurrent, int maxQueued);

  /// Admit or refuse a (pre-validated) spec.  On acceptance the job is
  /// recorded as Queued.
  [[nodiscard]] Admission admit(JobSpec spec, int client, double now);

  /// Queued or running job, or nullptr.
  [[nodiscard]] JobRecord* find(std::uint64_t id);

  /// Retained terminal job, or nullptr (active, evicted or unknown).
  [[nodiscard]] const FinishedRecord* findFinished(std::uint64_t id) const;

  /// Lowest-id queued job, or nullptr.  The caller promotes it.
  [[nodiscard]] JobRecord* nextQueued();

  /// Record a terminal job, moving it out of the active tier if it is
  /// there (recovery also records journal-replayed ones directly).  Its
  /// engine thread must have been joined; a queued job never had one.
  void finish(std::uint64_t id, FinishedRecord record);

  /// Recovery: re-insert a journal-replayed queued or running record
  /// verbatim, keeping its original id.
  void restore(JobRecord rec);

  /// Recovery: continue the id sequence where the journal left off so
  /// restarted daemons never reuse a job id (ticket namespaces stay
  /// unique across restarts).
  void setNextId(std::uint64_t next) noexcept;

  /// Retention: drop the oldest (lowest-id) finished records until at
  /// most `cap` remain, remembering each evicted job's final state so
  /// `status` can say "evicted" instead of "unknown".  Returns the
  /// evicted ids.
  [[nodiscard]] std::vector<std::uint64_t> evictFinishedOver(std::size_t cap);

  /// Final state of an evicted job, or nullopt if the id was never
  /// evicted.
  [[nodiscard]] std::optional<JobState> evictedState(std::uint64_t id) const;

  /// Recovery: mark a job as evicted (journal replay of an Evicted entry).
  void markEvicted(std::uint64_t id, JobState finalState);

  [[nodiscard]] int runningCount() const noexcept;
  [[nodiscard]] int queuedCount() const noexcept;
  /// Terminal jobs ever seen, retained or evicted.
  [[nodiscard]] std::int64_t completedCount() const noexcept {
    return static_cast<std::int64_t>(finished_.size()) + evictedCount_;
  }
  [[nodiscard]] bool anyActive() const noexcept { return !jobs_.empty(); }

  /// Queued and running jobs, ascending id.
  [[nodiscard]] std::map<std::uint64_t, JobRecord>& active() noexcept { return jobs_; }

  [[nodiscard]] int maxConcurrent() const noexcept { return maxConcurrent_; }
  [[nodiscard]] int maxQueued() const noexcept { return maxQueued_; }

 private:
  std::map<std::uint64_t, JobRecord> jobs_;           ///< queued + running only
  std::map<std::uint64_t, FinishedRecord> finished_;  ///< retained terminal jobs
  /// Final state of evicted jobs indexed by id: 0 = not evicted, else
  /// JobState + 1.  Ids are dense, so this is one byte per job ever issued.
  std::vector<std::uint8_t> evicted_;
  std::int64_t evictedCount_ = 0;
  std::uint64_t nextId_ = 1;
  int maxConcurrent_;
  int maxQueued_;
};

}  // namespace sfopt::service
