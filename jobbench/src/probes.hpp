#pragma once

// Bench-owned decorators around the library's public interfaces.  Layers
// are timed from outside: each decorator forwards every call unchanged and
// accumulates counts and busy/wait seconds, so a traced job computes
// exactly what an untraced one does (the result oracle checks this).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "net/transport.hpp"
#include "noise/stochastic_objective.hpp"

namespace jobbench {

[[nodiscard]] inline double nowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counts and times every sample() of the wrapped objective.  Safe to share
/// between the threads of a VertexServer: the accumulators are atomics.
class TimedObjective final : public sfopt::noise::StochasticObjective {
 public:
  explicit TimedObjective(const sfopt::noise::StochasticObjective& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t dimension() const override { return inner_.dimension(); }
  [[nodiscard]] double sampleDuration() const override { return inner_.sampleDuration(); }
  [[nodiscard]] double sample(std::span<const double> x,
                              sfopt::noise::SampleKey key) const override;
  [[nodiscard]] std::optional<double> trueValue(std::span<const double> x) const override {
    return inner_.trueValue(x);
  }
  [[nodiscard]] std::optional<double> noiseScale(std::span<const double> x) const override {
    return inner_.noiseScale(x);
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_.load(); }
  [[nodiscard]] double busySeconds() const noexcept { return busyNs_.load() * 1e-9; }

 private:
  const sfopt::noise::StochasticObjective& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> busyNs_{0};
};

/// Transport decorator used on the fleet master and on every worker.  Driven
/// by one thread per instance (the transports it wraps are driven by one
/// thread too); read the accumulators after that thread has finished.
///
/// Task pairing follows the MW protocol: a master sends kTagTask to a rank
/// and receives kTagResult/kTagError from it; a worker receives kTagTask and
/// answers with kTagResult/kTagError.  The blocking dispatch loop keeps one
/// task in flight per worker, so the n-th result from a rank belongs to the
/// n-th task sent to it, and the n-th reply a worker sends is the n-th task
/// it executed.
class TimedTransport final : public sfopt::net::Transport {
 public:
  explicit TimedTransport(sfopt::net::Transport& inner) : inner_(inner) {}

  [[nodiscard]] int size() const override { return inner_.size(); }
  void send(sfopt::net::Rank from, sfopt::net::Rank to, int tag,
            sfopt::mw::MessageBuffer payload, std::uint64_t traceId = 0,
            std::uint64_t parentSpan = 0) override;
  [[nodiscard]] sfopt::net::Message recv(sfopt::net::Rank at,
                                         sfopt::net::Rank source = sfopt::net::kAnySource,
                                         int tag = sfopt::net::kAnyTag) override;
  [[nodiscard]] std::optional<sfopt::net::Message> recvFor(
      sfopt::net::Rank at, double timeoutSeconds,
      sfopt::net::Rank source = sfopt::net::kAnySource,
      int tag = sfopt::net::kAnyTag) override;
  [[nodiscard]] std::optional<sfopt::net::Message> tryRecv(
      sfopt::net::Rank at, sfopt::net::Rank source = sfopt::net::kAnySource,
      int tag = sfopt::net::kAnyTag) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return inner_.messagesSent(); }
  [[nodiscard]] std::uint64_t bytesSent() const override { return inner_.bytesSent(); }
  [[nodiscard]] std::uint64_t messagesReceived() const override {
    return inner_.messagesReceived();
  }
  [[nodiscard]] std::uint64_t bytesReceived() const override { return inner_.bytesReceived(); }
  [[nodiscard]] std::uint64_t framesSent() const override { return inner_.framesSent(); }
  [[nodiscard]] std::uint64_t framesReceived() const override {
    return inner_.framesReceived();
  }
  [[nodiscard]] std::uint64_t decodeErrors() const override { return inner_.decodeErrors(); }

  std::uint64_t sendCalls = 0;
  std::uint64_t sendBytes = 0;
  double sendSeconds = 0.0;
  std::uint64_t recvCalls = 0;
  double recvWaitSeconds = 0.0;
  /// Master side: dispatch -> reply seconds, per worker rank, in order.
  std::map<sfopt::net::Rank, std::vector<double>> taskRtt;
  /// Worker side: task recv -> reply send seconds, in order, with the
  /// trace id each task carried (the daemon's ticket).
  std::vector<double> taskExec;
  std::vector<std::uint64_t> taskTrace;

 private:
  void observe(const sfopt::net::Message& m, double t);

  sfopt::net::Transport& inner_;
  std::map<sfopt::net::Rank, std::deque<double>> dispatchedAt_;
  double taskRecvAt_ = -1.0;
  std::uint64_t taskRecvTrace_ = 0;
};

}  // namespace jobbench
