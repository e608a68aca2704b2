#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sampling_backend.hpp"
#include "mw/message_buffer.hpp"
#include "service/job.hpp"
#include "stats/welford.hpp"

namespace sfopt::service {

/// Thrown out of TicketExchange::submit/poll into the job's engine when
/// the daemon cancels or fails the job; the job thread's wrapper catches
/// it and records the terminal state.
class JobAborted : public std::runtime_error {
 public:
  JobAborted(const std::string& reason, bool cancelled)
      : std::runtime_error(reason), cancelled_(cancelled) {}
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }

 private:
  bool cancelled_;
};

/// The multi-tenant heart of the service: a thread-safe mailbox between
/// the per-job engine threads (each driving its own EvalScheduler through
/// an ExchangeBackend) and the daemon thread that exclusively owns the one
/// MWDriver and the TCP transport.
///
/// Job threads submit() packed sampling tasks and poll() for their chunked
/// completions; the daemon drainPending()s tickets fairly — one shard per
/// runnable job per round-robin cycle — into the driver and deliver()s the
/// routed results back.  Tickets are globally unique and job-namespaced:
/// (jobId << kJobTraceShift) | sequence, with one exchange-wide sequence
/// counter, so the same ticket doubles as the shard's distributed trace id
/// and a multi-job capture groups cleanly per job.
///
/// abort() flags a job so its next submit/poll throws JobAborted (the
/// cancellation path); closeJob() must only be called after the job's
/// thread has exited — a blocked poll() holds the channel's condition
/// variable.
class TicketExchange {
 public:
  /// `onSubmit` runs on the submitting job thread after every submit()
  /// (outside the lock); the daemon passes its transport's wake() so a
  /// queued shard ends its poll wait at once.
  explicit TicketExchange(std::function<void()> onSubmit = {})
      : onSubmit_(std::move(onSubmit)) {}

  using Completion = core::SamplingBackend::Completion;

  struct PendingShard {
    std::uint64_t jobId = 0;
    std::uint64_t ticket = 0;
    mw::MessageBuffer input;
  };

  /// Daemon: open a channel before starting the job's thread.  `priority`
  /// (1..100) is the job's weighted-round-robin drain weight.
  void openJob(std::uint64_t jobId, int priority = 1);

  /// Daemon: tear down a channel.  Only safe once the job thread exited.
  void closeJob(std::uint64_t jobId);

  /// Job thread: enqueue one packed task; returns its ticket.  Throws
  /// JobAborted when the job was cancelled/failed or the channel is gone.
  [[nodiscard]] std::uint64_t submit(std::uint64_t jobId, mw::MessageBuffer input);

  /// Job thread: wait up to `timeoutSeconds` for completions (empty vector
  /// on timeout).  Throws JobAborted when the job was cancelled/failed.
  [[nodiscard]] std::vector<Completion> poll(std::uint64_t jobId, double timeoutSeconds);

  /// Daemon: route one completed shard back to its job.  Returns false
  /// (dropping the result) when the job is already closed — a late
  /// completion after cancel or failure.
  bool deliver(std::uint64_t jobId, std::uint64_t ticket, std::vector<stats::Welford> chunks);

  /// Daemon: make the job's next submit/poll throw JobAborted.
  void abort(std::uint64_t jobId, const std::string& reason, bool cancelled);

  /// Daemon: pop up to `maxShards` pending shards, weighted round-robin
  /// across jobs — each job yields up to its priority's worth of shards
  /// per cycle, and every job with pending work is visited every cycle,
  /// so high-priority jobs get proportionally more fleet without starving
  /// anyone.  All-default priorities degenerate to plain round-robin.
  [[nodiscard]] std::vector<PendingShard> drainPending(std::size_t maxShards);

  /// Shards submitted by job threads but not yet drained by the daemon.
  [[nodiscard]] std::size_t pendingShards() const;

  /// Fleet parallelism hint the daemon keeps fresh; ExchangeBackend
  /// reports it so each job's EvalScheduler sizes its outstanding-shard
  /// window to the shared fleet.
  void setParallelism(int p) noexcept { parallelism_.store(p < 1 ? 1 : p); }
  [[nodiscard]] int parallelism() const noexcept { return parallelism_.load(); }

 private:
  struct Channel {
    std::deque<PendingShard> pending;
    std::deque<Completion> done;
    std::condition_variable cv;
    int priority = 1;
    bool aborted = false;
    bool cancelled = false;
    std::string reason;
  };

  [[nodiscard]] Channel& channelOrThrow(std::uint64_t jobId);

  const std::function<void()> onSubmit_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::unique_ptr<Channel>> jobs_;
  std::uint64_t nextSequence_ = 1;
  std::size_t cursor_ = 0;  ///< round-robin position over jobs_ (by index)
  std::atomic<int> parallelism_{1};
};

/// The per-job core::SamplingBackend: marshals every batch into a
/// self-describing service task and moves it through the exchange.  Lives
/// on the job's engine thread; one instance per job.
class ExchangeBackend final : public core::SamplingBackend {
 public:
  /// `silenceTimeoutSeconds` is the daemon's ServiceOptions::
  /// recvTimeoutSeconds: how long the job waits without a completion
  /// before it fails as wedged.
  ExchangeBackend(TicketExchange& exchange, std::uint64_t jobId, ObjectiveSpec spec,
                  double silenceTimeoutSeconds)
      : exchange_(exchange),
        jobId_(jobId),
        spec_(std::move(spec)),
        silenceTimeoutSeconds_(silenceTimeoutSeconds) {}

  [[nodiscard]] std::uint64_t submit(const BatchRequest& request) override;
  [[nodiscard]] std::vector<Completion> poll(double timeoutSeconds) override;
  [[nodiscard]] int parallelism() const override;
  [[nodiscard]] double silenceTimeoutSeconds() const override {
    return silenceTimeoutSeconds_;
  }

 private:
  TicketExchange& exchange_;
  std::uint64_t jobId_;
  ObjectiveSpec spec_;
  double silenceTimeoutSeconds_;
};

}  // namespace sfopt::service
