#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>

#include "mw/message_buffer.hpp"

namespace sfopt::net {

/// Rank within a transport world.  Rank 0 is conventionally the master.
using Rank = int;

/// Matches any source rank or any tag in recv().
inline constexpr Rank kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Transport-reserved control tags.  Application tags are >= 0, so negative
/// values below kAnyTag can never collide.  A transport that tracks peer
/// liveness synthesizes these as ordinary inbound messages, which lets the
/// MW driver fold connection failures into its existing requeue path
/// without a side channel:
///
///  - kTagWorkerLost: the source rank's connection closed or its heartbeats
///    stopped; any task in flight there should be requeued elsewhere.
///  - kTagWorkerJoined: a new worker registered at the source rank (the
///    world grew mid-run); pending tasks may be dispatched to it.
///
/// The in-process CommWorld never emits either on its own, but accepts them
/// like any other tag, which the failure tests use to script loss events.
inline constexpr int kTagWorkerLost = -2;
inline constexpr int kTagWorkerJoined = -3;

/// A received (or in-flight) message: payload plus envelope.  The trace
/// fields carry distributed trace context across the process boundary
/// (wire format v2); 0 means "untraced".
struct Message {
  Rank source = 0;
  int tag = 0;
  mw::MessageBuffer payload;
  std::uint64_t traceId = 0;
  std::uint64_t parentSpan = 0;
};

/// Remove and return the first message in `inbox` matching (source, tag),
/// MPI-style: kAnySource / kAnyTag match anything.  The one matcher behind
/// every endpoint's recv/recvFor/tryRecv.
[[nodiscard]] inline std::optional<Message> takeMatching(std::deque<Message>& inbox,
                                                         Rank source, int tag) {
  const auto it = std::find_if(inbox.begin(), inbox.end(), [&](const Message& m) {
    return (source == kAnySource || m.source == source) && (tag == kAnyTag || m.tag == tag);
  });
  if (it == inbox.end()) return std::nullopt;
  Message m = std::move(*it);
  inbox.erase(it);
  return m;
}

/// Thrown by a network transport when its peer is gone for good: the
/// connection closed, reset, or timed out at the protocol level.  Callers
/// (the worker CLI loop) catch this to drive reconnect-with-backoff.
class ConnectionLost : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Point-to-point message transport between ranks — the seam between the
/// MW layer and the deployment substrate.  Two implementations exist:
/// the in-process CommWorld (N mailboxes, one thread per rank) and the
/// TCP pair TcpCommWorld / TcpWorkerTransport (one process per rank,
/// length-prefixed frames over sockets).  The MW driver and workers are
/// written against this interface only, so a run is distributed by
/// swapping the transport, not the MW code.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Number of ranks (1 master + workers).  May grow mid-run on transports
  /// that accept late-joining workers.
  [[nodiscard]] virtual int size() const = 0;

  /// Deliver `payload` to `to` with the given tag, recording `from` as the
  /// source.  `traceId`/`parentSpan` ride the envelope so the receiver can
  /// continue the sender's span tree (0 = untraced).  Best effort: sending
  /// to a rank whose peer is lost is a silent drop (the loss is reported
  /// via kTagWorkerLost on recv), so callers never race the failure
  /// detector.
  virtual void send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
                    std::uint64_t traceId = 0, std::uint64_t parentSpan = 0) = 0;

  /// Block until a message matching (source, tag) arrives at `at`; remove
  /// and return it.  kAnySource / kAnyTag match anything.
  [[nodiscard]] virtual Message recv(Rank at, Rank source = kAnySource, int tag = kAnyTag) = 0;

  /// Deadline variant of recv(): wait at most `timeoutSeconds` for a match
  /// and return nullopt on timeout.  This is what keeps the master from
  /// blocking forever on a lost worker.
  [[nodiscard]] virtual std::optional<Message> recvFor(Rank at, double timeoutSeconds,
                                                       Rank source = kAnySource,
                                                       int tag = kAnyTag) = 0;

  /// Non-blocking probe-and-take: returns nullopt when no matching message
  /// is queued.
  [[nodiscard]] virtual std::optional<Message> tryRecv(Rank at, Rank source = kAnySource,
                                                       int tag = kAnyTag) = 0;

  /// Total application messages and bytes ever sent (for the scale-up
  /// accounting); transport-internal traffic (heartbeats, handshakes) is
  /// excluded here and reported via telemetry instead.
  [[nodiscard]] virtual std::uint64_t messagesSent() const = 0;
  [[nodiscard]] virtual std::uint64_t bytesSent() const = 0;

  /// Receive-side mirror of the counters above: application messages and
  /// bytes taken off the transport at this endpoint.
  [[nodiscard]] virtual std::uint64_t messagesReceived() const { return 0; }
  [[nodiscard]] virtual std::uint64_t bytesReceived() const { return 0; }

  /// Raw frame traffic including transport-internal frames (heartbeats,
  /// handshakes, telemetry snapshots).  In-process transports have no
  /// frames and report 0.
  [[nodiscard]] virtual std::uint64_t framesSent() const { return 0; }
  [[nodiscard]] virtual std::uint64_t framesReceived() const { return 0; }

  /// Protocol violations observed while decoding the peer's byte stream.
  [[nodiscard]] virtual std::uint64_t decodeErrors() const { return 0; }
};

}  // namespace sfopt::net
