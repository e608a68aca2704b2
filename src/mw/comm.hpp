#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "mw/message_buffer.hpp"
#include "net/transport.hpp"

namespace sfopt::mw {

/// The MW layer speaks the transport vocabulary; these aliases keep the
/// historical sfopt::mw spellings working now that the definitions live
/// with the Transport interface in sfopt::net.
using Rank = net::Rank;
using Message = net::Message;
inline constexpr Rank kAnySource = net::kAnySource;
inline constexpr int kAnyTag = net::kAnyTag;

/// In-process message-passing "world": N ranks, each with a mailbox of
/// tagged messages, point-to-point send/recv with MPI-like any-source /
/// any-tag matching.  One of two Transport implementations under the MW
/// classes — the other is the TCP pair in net/tcp_transport.hpp, which
/// swaps real sockets and processes in without touching the MW layer.
///
/// Thread-safety: each rank is intended to be driven by one thread, but
/// sends may target any rank from any thread.
class CommWorld final : public net::Transport {
 public:
  explicit CommWorld(int size);

  [[nodiscard]] int size() const noexcept override {
    return static_cast<int>(boxes_.size());
  }

  /// Deliver `payload` to `to`'s mailbox with the given tag, recording
  /// `from` as the source.  Never blocks (mailboxes are unbounded).
  void send(Rank from, Rank to, int tag, MessageBuffer payload,
            std::uint64_t traceId = 0, std::uint64_t parentSpan = 0) override;

  /// Block until a message matching (source, tag) arrives at `at`; remove
  /// and return it.  kAnySource / kAnyTag match anything.
  [[nodiscard]] Message recv(Rank at, Rank source = kAnySource, int tag = kAnyTag) override;

  /// Deadline variant of recv(): wait at most `timeoutSeconds` for a
  /// matching message, returning nullopt on timeout.
  [[nodiscard]] std::optional<Message> recvFor(Rank at, double timeoutSeconds,
                                               Rank source = kAnySource,
                                               int tag = kAnyTag) override;

  /// Non-blocking probe-and-take: returns nullopt when no matching message
  /// is queued.
  [[nodiscard]] std::optional<Message> tryRecv(Rank at, Rank source = kAnySource,
                                               int tag = kAnyTag) override;

  /// Number of queued messages at a rank (diagnostics).
  [[nodiscard]] std::size_t queuedAt(Rank at) const;

  /// Total messages and bytes ever sent (for the scale-up accounting).
  [[nodiscard]] std::uint64_t messagesSent() const noexcept override;
  [[nodiscard]] std::uint64_t bytesSent() const noexcept override;

  /// Receive-side mirror: messages and bytes taken out of mailboxes.
  [[nodiscard]] std::uint64_t messagesReceived() const noexcept override;
  [[nodiscard]] std::uint64_t bytesReceived() const noexcept override;

 private:
  struct Mailbox {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  void checkRank(Rank r, const char* what) const;
  /// The one wait loop behind recv/recvFor/tryRecv: take the first match,
  /// waiting at most `timeoutSeconds` for one to arrive.
  [[nodiscard]] std::optional<Message> await(Rank at, const char* what, double timeoutSeconds,
                                             Rank source, int tag);

  void countReceived(const Message& m);

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  mutable std::mutex statsMutex_;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t messagesReceived_ = 0;
  std::uint64_t bytesReceived_ = 0;
};

}  // namespace sfopt::mw
