#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace sfopt::telemetry {
class Telemetry;
class Counter;
}

namespace sfopt::net {

/// Pre-registered transport-layer metric handles (the `net` layer of the
/// observability spine).  All pointers are null when no telemetry is
/// attached; add() tolerates that, so the hot path never branches twice.
struct NetTelemetry {
  telemetry::Counter* messagesIn = nullptr;
  telemetry::Counter* messagesOut = nullptr;
  telemetry::Counter* bytesIn = nullptr;
  telemetry::Counter* bytesOut = nullptr;
  telemetry::Counter* connects = nullptr;
  telemetry::Counter* disconnects = nullptr;
  telemetry::Counter* heartbeatsSent = nullptr;
  telemetry::Counter* heartbeatMisses = nullptr;
  telemetry::Counter* sendsDropped = nullptr;
  telemetry::Counter* sendStalls = nullptr;
  telemetry::Counter* framesIn = nullptr;
  telemetry::Counter* framesOut = nullptr;
  telemetry::Counter* decodeErrors = nullptr;

  static NetTelemetry registerIn(telemetry::Telemetry* telemetry);
  static void add(telemetry::Counter* c, std::int64_t n = 1) noexcept;
};

/// Application-level counters a worker process exposes to its transport so
/// the heartbeat thread can ship them to the master (FrameType::Telemetry).
struct WorkerStats {
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksFailed = 0;
  double executeEwmaSeconds = 0.0;
};

/// Rolling per-worker health the master accumulates from telemetry
/// snapshots.  All times are seconds; rttSeconds < 0 until the first
/// round-trip estimate lands.
struct FleetHealth {
  bool seen = false;                ///< any snapshot received yet
  double rttSeconds = -1.0;         ///< heartbeat round-trip estimate
  double clockOffsetSeconds = 0.0;  ///< worker clock minus master clock
  double executeEwmaSeconds = 0.0;
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksFailed = 0;
  std::uint64_t bytesIn = 0;    ///< as counted by the worker
  std::uint64_t bytesOut = 0;
  std::uint64_t messagesIn = 0;
  std::uint64_t messagesOut = 0;
  std::uint32_t queueDepth = 0;
  double lastUpdateSeconds = 0.0;  ///< master clock time of latest snapshot
};

/// Knobs for the master side.  (Defined at namespace scope so it can be a
/// defaulted `= {}` constructor argument — a nested aggregate with default
/// member initializers cannot be.)
struct TcpMasterOptions {
  double heartbeatIntervalSeconds = 2.0;  ///< cadence of master->worker beats
  double heartbeatTimeoutSeconds = 10.0;  ///< silence after which a worker is lost
  /// A peer whose socket has accepted no bytes for this long while we have
  /// frames queued for it is lost — recv-silence alone cannot catch a
  /// half-open connection where the worker still heartbeats us but never
  /// drains its side (one-way partition, wedged middlebox).  0 falls back
  /// to heartbeatTimeoutSeconds.
  double sendStallTimeoutSeconds = 0.0;
  /// Cap on the per-peer userspace send backlog; exceeding it evicts the
  /// peer as lost rather than letting a stalled consumer grow the buffer
  /// without bound.  0 disables the cap (not recommended).
  std::size_t maxSendBufferBytes = std::size_t{64} << 20;
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
  telemetry::Telemetry* telemetry = nullptr;
};

/// Knobs for the worker side.
struct TcpWorkerOptions {
  double heartbeatIntervalSeconds = 2.0;
  double masterTimeoutSeconds = 0.0;  ///< 0 = rely on TCP disconnect only
  double connectTimeoutSeconds = 10.0;
  double handshakeTimeoutSeconds = 10.0;
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
  telemetry::Telemetry* telemetry = nullptr;
};

/// Master-side TCP transport: rank 0 of a distributed world.  Binds a
/// port, accepts worker connections, runs the Hello/Welcome handshake, and
/// assigns ranks 1..N in connection order.  The world grows as workers
/// join (including re-joins after a crash); a rank is never reused, so a
/// reconnecting worker appears as a fresh rank and the old one stays lost.
///
/// Peers announcing kPeerClient in their Hello register in a separate
/// client id space (they never consume worker ranks, never receive tasks,
/// and are invisible to size()/liveWorkers()/fleetHealth()).  Their Job*
/// frames surface through takeClientRequests() and replies go out via
/// sendToClient() — the job control plane of the multi-tenant service.
/// Clients are request/response peers: no heartbeat-silence eviction, a
/// closed connection simply retires the id (ids are never reused).
///
/// Every connection — handshaking, worker or client — is one entry in one
/// table with one read path, one send path and one deadline sweep.  A
/// connection is dropped when it closes or resets (noticed immediately via
/// poll), when it sends bytes that do not decode, when it has not
/// completed its Hello within `heartbeatTimeoutSeconds` of the accept,
/// when (a worker) its heartbeats stop for `heartbeatTimeoutSeconds`, and
/// when it stops draining its socket: our sends stall past
/// `sendStallTimeoutSeconds` or the backlog exceeds `maxSendBufferBytes`.
/// A half-open worker that still heartbeats us is caught by the last
/// rule.  A lost worker is surfaced as a kTagWorkerLost message so the MW
/// driver requeues its in-flight task, and the lost rank's
/// `fleet.r<N>.*` gauges are retired.
///
/// Threading: intended to be driven by one (master) thread; not
/// thread-safe, except wake().  All I/O happens inside recv/recvFor/
/// tryRecv/send/pump and waitForWorkers — there is no background thread on
/// the master side.
class TcpCommWorld final : public Transport {
 public:
  using Options = TcpMasterOptions;

  /// Bind + listen; port 0 picks an ephemeral port (see port()).
  explicit TcpCommWorld(std::uint16_t port, Options options = {});
  ~TcpCommWorld() override;

  TcpCommWorld(const TcpCommWorld&) = delete;
  TcpCommWorld& operator=(const TcpCommWorld&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Message delivered to every worker right after its Welcome (and again
  /// to every later joiner) — the application uses this to push the
  /// objective/deployment configuration without a separate exchange.
  void setGreeting(int tag, mw::MessageBuffer payload);

  /// Block until `count` workers are connected and registered (or throw
  /// std::runtime_error after `timeoutSeconds`).  Returns the live count.
  int waitForWorkers(int count, double timeoutSeconds);

  [[nodiscard]] int liveWorkers() const noexcept;

  /// Latest health snapshot for every registered rank (index = rank - 1).
  /// Entries with !seen never shipped telemetry (or predate v2 workers).
  [[nodiscard]] std::vector<FleetHealth> fleetHealth() const;

  /// One Job* frame received from a registered client peer.
  struct ClientRequest {
    int client = 0;  ///< client id (1-based, never a worker rank)
    FrameType type = FrameType::JobSubmit;
    mw::MessageBuffer payload;
  };

  /// Drain every client job frame received so far (the daemon's control
  /// plane inbox).  Requests surface in arrival order.
  [[nodiscard]] std::vector<ClientRequest> takeClientRequests();

  /// Send a Job* reply to a client; silently dropped when the client is
  /// gone (mirrors send()'s contract for lost workers).  Throws
  /// std::out_of_range for an id that was never assigned.
  void sendToClient(int client, FrameType type, mw::MessageBuffer payload);

  /// Clients currently connected (registered and not yet closed).
  [[nodiscard]] int connectedClients() const noexcept;

  /// Drive one pass of the event loop without receiving: accepts joiners,
  /// reads client/worker frames into the inboxes, flushes pending writes,
  /// runs heartbeat bookkeeping.  The daemon loop waits here, so it also
  /// returns early on a wake() — including one that landed since the last
  /// pump, while a recv/recvFor/tryRecv pass was polling.
  void pump(double timeoutSeconds);

  /// Thread-safe: end the current pump() wait early, or the next one if
  /// none is in progress.  Wakes do not coalesce into lost signals: one
  /// issued at any time after a pump returned ends the following pump.
  /// recv/recvFor never return early on a wake, so a wake is never read
  /// as fabric silence.  The service's job threads call this when they
  /// queue a shard or finish, so the daemon turns a round around at once.
  void wake() noexcept;

  // -- Transport (at/from must be rank 0) ---------------------------------
  [[nodiscard]] int size() const noexcept override;
  void send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
            std::uint64_t traceId = 0, std::uint64_t parentSpan = 0) override;
  [[nodiscard]] Message recv(Rank at, Rank source = kAnySource, int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> recvFor(Rank at, double timeoutSeconds,
                                               Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> tryRecv(Rank at, Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return messagesSent_; }
  [[nodiscard]] std::uint64_t bytesSent() const override { return bytesSent_; }
  [[nodiscard]] std::uint64_t messagesReceived() const override { return messagesReceived_; }
  [[nodiscard]] std::uint64_t bytesReceived() const override { return bytesReceived_; }
  [[nodiscard]] std::uint64_t framesSent() const override { return framesSent_; }
  [[nodiscard]] std::uint64_t framesReceived() const override { return framesReceived_; }
  [[nodiscard]] std::uint64_t decodeErrors() const override { return decodeErrors_; }

 private:
  enum class Role { Pending, Worker, Client };
  /// One accepted connection, whatever its role.  A dropped connection
  /// closes its socket at once and leaves the table at the end of the
  /// event-loop pass.
  struct Connection {
    Socket sock;
    FrameDecoder decoder;
    std::vector<std::byte> sendBuf;
    std::size_t sendPos = 0;
    /// Last decoded frame; the accept time while the Hello is pending.
    double lastHeard = 0.0;
    /// When the kernel first refused our bytes with a backlog pending
    /// (0 = sends are flowing).  Half-open detection: a peer that keeps
    /// heartbeating us but never drains its socket trips this deadline,
    /// not the recv-silence one.
    double sendBlockedSince = 0.0;
    Role role = Role::Pending;
    int id = 0;           ///< worker rank or client id once registered
    FleetHealth health;   ///< workers only
  };

  /// One pass of the event loop: poll the listener + every connection for
  /// at most `timeoutSeconds`, service reads/writes/accepts, then run the
  /// deadline sweep.
  void pollOnce(double timeoutSeconds);
  /// Read everything the socket holds and dispatch each decoded frame;
  /// frames that rode the connection's final segments are dispatched
  /// before the close is acted on.
  void serviceRead(Connection& c);
  void dispatch(Connection& c, Frame&& frame);
  void registerPeer(Connection& c, const Hello& hello);
  void handleSnapshot(Connection& c, const TelemetrySnapshot& snap);
  /// Master time on the telemetry clock when attached (so heartbeat stamps
  /// line up with trace timestamps), else the monotonic process clock.
  [[nodiscard]] double masterNow() const;
  /// Queue a frame, count it (as an application message when `message`),
  /// and flush.
  void enqueue(Connection& c, const Frame& frame, bool message);
  /// Write as much of the backlog as the kernel takes, running the stall
  /// clock and the backlog cap.
  void flush(Connection& c);
  /// Close the connection.  A worker's loss surfaces as kTagWorkerLost
  /// and its `fleet.r<N>.*` gauges are zeroed: ranks are never reused, so
  /// nothing would ever overwrite them.  Idempotent.
  void drop(Connection& c, const char* why);
  [[nodiscard]] Connection* findClient(int client) const;
  /// The wait loop behind recv/recvFor/tryRecv.
  [[nodiscard]] std::optional<Message> await(Rank at, const char* what, double timeoutSeconds,
                                             Rank source, int tag);

  Options options_;
  Socket listener_;
  std::uint16_t port_ = 0;
  /// eventfd written by wake() (Socket is used as a plain fd owner); polled
  /// with the sockets on every pass.
  Socket wakeFd_;
  /// A pass drained a wake; the next pump() returns without waiting.
  bool woken_ = false;
  std::vector<std::unique_ptr<Connection>> conns_;  ///< every open connection
  std::vector<Connection*> workers_;  ///< index = rank - 1; null once lost
  int lastClientId_ = 0;
  double lastBeat_ = 0.0;  ///< one heartbeat cadence for every worker
  std::deque<Message> inbox_;
  std::deque<ClientRequest> clientInbox_;
  std::optional<std::pair<int, std::vector<std::byte>>> greeting_;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t messagesReceived_ = 0;
  std::uint64_t bytesReceived_ = 0;
  std::uint64_t framesSent_ = 0;
  std::uint64_t framesReceived_ = 0;
  std::uint64_t decodeErrors_ = 0;
  NetTelemetry tel_;
};

/// Worker-side TCP transport: connects to a TcpCommWorld master, performs
/// the handshake, and then behaves as the assigned rank.  recv() delivers
/// master messages (source 0) and throws ConnectionLost when the master
/// goes away, which the worker CLI uses to drive reconnection.
///
/// Heartbeats to the master are sent from a small background thread so
/// they keep flowing while the worker is busy inside a long task — a
/// healthy-but-slow worker must not look dead to the master.
class TcpWorkerTransport final : public Transport {
 public:
  using Options = TcpWorkerOptions;

  /// Connect + handshake (throws std::runtime_error / ProtocolError /
  /// ConnectionLost on failure), then start the heartbeat thread.
  TcpWorkerTransport(const std::string& host, std::uint16_t port, Options options = {});
  ~TcpWorkerTransport() override;

  TcpWorkerTransport(const TcpWorkerTransport&) = delete;
  TcpWorkerTransport& operator=(const TcpWorkerTransport&) = delete;

  /// Rank assigned by the master in the Welcome.
  [[nodiscard]] Rank rank() const noexcept { return rank_; }

  /// Install the callback the heartbeat thread polls for application-level
  /// stats; each beat then carries a TelemetrySnapshot to the master.  The
  /// callback must be thread-safe (it runs on the heartbeat thread while
  /// the worker executes tasks).  Passing an empty function detaches it
  /// and acts as a barrier: on return, no invocation is in flight — clear
  /// the provider before destroying whatever it captures.
  void setStatsProvider(std::function<WorkerStats()> provider);

  // -- Transport (at/from must be rank()) ---------------------------------
  [[nodiscard]] int size() const noexcept override { return worldSize_; }
  void send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
            std::uint64_t traceId = 0, std::uint64_t parentSpan = 0) override;
  [[nodiscard]] Message recv(Rank at, Rank source = kAnySource, int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> recvFor(Rank at, double timeoutSeconds,
                                               Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> tryRecv(Rank at, Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return messagesSent_; }
  [[nodiscard]] std::uint64_t bytesSent() const override { return bytesSent_; }
  [[nodiscard]] std::uint64_t messagesReceived() const override { return messagesReceived_; }
  [[nodiscard]] std::uint64_t bytesReceived() const override { return bytesReceived_; }
  [[nodiscard]] std::uint64_t framesSent() const override { return framesSent_.load(); }
  [[nodiscard]] std::uint64_t framesReceived() const override { return framesReceived_; }
  [[nodiscard]] std::uint64_t decodeErrors() const override { return decodeErrors_; }

 private:
  void beatLoop();
  /// Worker time on the telemetry clock when attached, else monotonic.
  [[nodiscard]] double localNow() const;
  /// Blocking framed write under sendMutex_; marks the connection dead and
  /// throws ConnectionLost on failure (unless `nothrow`).
  void writeFrameLocked(const Frame& frame, bool nothrow);
  /// Poll for at most `timeoutSeconds`, read what arrived, and dispatch
  /// every decoded frame (the Welcome registers us, messages go to the
  /// inbox, heartbeats to lastHeard_).  Throws ConnectionLost when the
  /// socket was already closed, or the master fell silent past its
  /// timeout; a handshake frame after registration is a protocol
  /// violation.
  void readSome(double timeoutSeconds);
  /// The wait loop behind recv/recvFor/tryRecv.
  [[nodiscard]] std::optional<Message> await(Rank at, const char* what, double timeoutSeconds,
                                             Rank source, int tag);

  Options options_;
  Socket sock_;
  FrameDecoder decoder_;
  std::deque<Message> inbox_;
  Rank rank_ = -1;
  int worldSize_ = 0;
  double lastHeard_ = 0.0;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t messagesReceived_ = 0;
  std::uint64_t bytesReceived_ = 0;
  std::uint64_t framesReceived_ = 0;
  std::uint64_t decodeErrors_ = 0;
  NetTelemetry tel_;

  // Written by both the user thread and the heartbeat thread.
  std::atomic<std::uint64_t> framesSent_{0};
  std::atomic<std::uint64_t> rawBytesIn_{0};
  std::atomic<std::uint64_t> rawBytesOut_{0};
  std::atomic<std::uint64_t> atomicMessagesIn_{0};
  std::atomic<std::uint64_t> atomicMessagesOut_{0};
  std::atomic<std::uint32_t> inboxDepth_{0};
  std::atomic<double> lastMasterBeat_{0.0};       ///< master-clock stamp
  std::atomic<double> lastMasterBeatLocal_{0.0};  ///< our clock at arrival
  std::mutex providerMutex_;
  std::function<WorkerStats()> statsProvider_;

  std::mutex sendMutex_;
  std::atomic<bool> dead_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stopMutex_;
  std::condition_variable stopCv_;
  std::thread beat_;
};

/// Delay before retry `attempt` (1-based) of a backoff loop: the classic
/// doubling schedule (initialBackoffSeconds * 2^(attempt-1), capped at 5 s)
/// scaled by a deterministic jitter factor in [0.5, 1.5) hashed from
/// (jitterSeed, attempt).  Seeding by rank decorrelates a fleet that lost
/// its master simultaneously — without jitter every worker would retry on
/// the same schedule and thundering-herd the accept loop on restart.  Pure
/// function of its arguments, so tests can pin the exact sequence.
[[nodiscard]] double backoffDelaySeconds(int attempt, double initialBackoffSeconds,
                                         std::uint64_t jitterSeed);

/// Construct a TcpWorkerTransport, retrying on the jittered doubling
/// schedule of backoffDelaySeconds() (seeded by `jitterSeed`); `attempts`
/// tries.  Rethrows the final failure.
[[nodiscard]] std::unique_ptr<TcpWorkerTransport> connectWithBackoff(
    const std::string& host, std::uint16_t port, int attempts, double initialBackoffSeconds,
    const TcpWorkerTransport::Options& options = {}, std::uint64_t jitterSeed = 0);

}  // namespace sfopt::net
