#include "net/tcp_transport.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace sfopt::net {

namespace {

/// Granularity of one poll pass: short enough that heartbeat bookkeeping
/// and deadline checks stay responsive inside long blocking recvs.
constexpr double kPollSliceSeconds = 0.2;

constexpr std::size_t kReadChunk = 64 * 1024;

/// recv()'s timeout: wait until a match arrives.
constexpr double kForever = std::numeric_limits<double>::infinity();

/// Upper bound on a blocking worker->master write when no master timeout is
/// configured: a peer that stops draining its socket for this long is dead
/// for our purposes, and an unbounded send would pin the heartbeat thread
/// (which writes under sendMutex_) and wedge destruction.
constexpr double kDefaultWriteTimeoutSeconds = 30.0;

int toPollMillis(double seconds) {
  if (seconds <= 0.0) return 0;
  const double ms = seconds * 1000.0;
  return ms > 1.0 ? static_cast<int>(std::min(ms, 60'000.0)) : 1;
}

struct ReadResult {
  std::size_t bytes = 0;
  const char* closed = nullptr;  ///< why the stream ended; null while open
};

/// Drain every byte the kernel holds for `sock` into `decoder` — the one
/// ::recv loop of both endpoints.  A close is reported, not acted on, so
/// the caller still dispatches frames that rode the final segments.
ReadResult readAvailable(const Socket& sock, FrameDecoder& decoder) {
  std::byte chunk[kReadChunk];
  ReadResult r;
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      decoder.feed(chunk, static_cast<std::size_t>(n));
      r.bytes += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) r.closed = "connection closed";
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) r.closed = "connection error";
    return r;
  }
}

Message messageFromFrame(Frame&& frame, Rank source) {
  return Message{source, frame.tag, mw::MessageBuffer(std::move(frame.payload)), frame.traceId,
                 frame.parentSpan};
}

/// The wait loop behind every TCP endpoint's recv/recvFor/tryRecv: take a
/// match from `inbox`, else run one I/O `pass` of at most a poll slice,
/// until `timeoutSeconds` is spent.  A zero timeout still runs one
/// non-blocking pass before giving up.
template <class Pass>
std::optional<Message> awaitMatch(std::deque<Message>& inbox, Rank source, int tag,
                                  double timeoutSeconds, Pass&& pass) {
  const double deadline = monotonicSeconds() + timeoutSeconds;
  for (;;) {
    if (auto m = takeMatching(inbox, source, tag)) return m;
    const double remaining = deadline - monotonicSeconds();
    pass(std::clamp(remaining, 0.0, kPollSliceSeconds));
    if (remaining <= 0.0) return takeMatching(inbox, source, tag);
  }
}

}  // namespace

NetTelemetry NetTelemetry::registerIn(telemetry::Telemetry* telemetry) {
  NetTelemetry t;
  if (telemetry == nullptr) return t;
  auto& reg = telemetry->metrics();
  t.messagesIn = &reg.counter("net.messages_in");
  t.messagesOut = &reg.counter("net.messages_out");
  t.bytesIn = &reg.counter("net.bytes_in");
  t.bytesOut = &reg.counter("net.bytes_out");
  t.connects = &reg.counter("net.connects");
  t.disconnects = &reg.counter("net.disconnects");
  t.heartbeatsSent = &reg.counter("net.heartbeats_sent");
  t.heartbeatMisses = &reg.counter("net.heartbeat_misses");
  t.sendsDropped = &reg.counter("net.sends_dropped");
  t.sendStalls = &reg.counter("net.send_stalls");
  t.framesIn = &reg.counter("net.frames_in");
  t.framesOut = &reg.counter("net.frames_out");
  t.decodeErrors = &reg.counter("net.decode_errors");
  return t;
}

void NetTelemetry::add(telemetry::Counter* c, std::int64_t n) noexcept {
  if (c != nullptr) c->add(n);
}

// ---------------------------------------------------------------------------
// TcpCommWorld (master)
// ---------------------------------------------------------------------------

TcpCommWorld::TcpCommWorld(std::uint16_t port, Options options)
    : options_(options),
      listener_(tcpListen(port)),
      port_(localPort(listener_)),
      wakeFd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      tel_(NetTelemetry::registerIn(options.telemetry)) {
  if (!wakeFd_.valid()) {
    throw std::runtime_error(std::string("TcpCommWorld: eventfd: ") + std::strerror(errno));
  }
}

TcpCommWorld::~TcpCommWorld() = default;

void TcpCommWorld::setGreeting(int tag, mw::MessageBuffer payload) {
  greeting_ = {tag, payload.releaseWire()};
}

int TcpCommWorld::liveWorkers() const noexcept {
  return static_cast<int>(std::count_if(workers_.begin(), workers_.end(),
                                        [](const Connection* c) { return c != nullptr; }));
}

int TcpCommWorld::size() const noexcept { return 1 + static_cast<int>(workers_.size()); }

double TcpCommWorld::masterNow() const {
  return options_.telemetry != nullptr ? options_.telemetry->clock().now()
                                       : monotonicSeconds();
}

std::vector<FleetHealth> TcpCommWorld::fleetHealth() const {
  std::vector<FleetHealth> out;
  out.reserve(workers_.size());
  for (const Connection* c : workers_) out.push_back(c != nullptr ? c->health : FleetHealth{});
  return out;
}

int TcpCommWorld::waitForWorkers(int count, double timeoutSeconds) {
  const double deadline = monotonicSeconds() + timeoutSeconds;
  for (;;) {
    if (liveWorkers() >= count) return liveWorkers();
    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0.0) {
      throw std::runtime_error("TcpCommWorld: timed out waiting for workers (have " +
                               std::to_string(liveWorkers()) + " of " +
                               std::to_string(count) + ")");
    }
    pollOnce(std::min(remaining, kPollSliceSeconds));
  }
}

void TcpCommWorld::send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
                        std::uint64_t traceId, std::uint64_t parentSpan) {
  if (from != 0) {
    throw std::invalid_argument(
        "TcpCommWorld::send(from): only rank 0 lives on the master transport");
  }
  if (to < 1 || to >= size()) {
    throw std::out_of_range("TcpCommWorld::send: rank out of range");
  }
  Connection* c = workers_[static_cast<std::size_t>(to) - 1];
  if (c == nullptr) {
    NetTelemetry::add(tel_.sendsDropped);
    return;  // loss already reported (or about to be) via kTagWorkerLost
  }
  enqueue(*c, makeMessageFrame(tag, payload.releaseWire(), traceId, parentSpan), true);
}

void TcpCommWorld::enqueue(Connection& c, const Frame& frame, bool message) {
  const std::size_t before = c.sendBuf.size();
  appendFrame(c.sendBuf, frame);
  const std::size_t bytes = c.sendBuf.size() - before;
  ++framesSent_;
  NetTelemetry::add(tel_.framesOut);
  NetTelemetry::add(tel_.bytesOut, static_cast<std::int64_t>(bytes));
  if (message) {
    ++messagesSent_;
    bytesSent_ += bytes;
    NetTelemetry::add(tel_.messagesOut);
  }
  flush(c);
}

void TcpCommWorld::flush(Connection& c) {
  bool progressed = false;
  while (c.sock.valid() && c.sendPos < c.sendBuf.size()) {
    const ssize_t n = ::send(c.sock.fd(), c.sendBuf.data() + c.sendPos,
                             c.sendBuf.size() - c.sendPos, MSG_NOSIGNAL);
    if (n > 0) {
      c.sendPos += static_cast<std::size_t>(n);
      progressed = true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Drained by poll later — but start (or keep) the stall clock: a
      // half-open peer never drains, and only this deadline catches it.
      if (c.sendBlockedSince <= 0.0 || progressed) c.sendBlockedSince = monotonicSeconds();
      // Against a stalled consumer the backlog would otherwise grow
      // without bound: cap it and drop the connection.
      if (options_.maxSendBufferBytes > 0 &&
          c.sendBuf.size() - c.sendPos > options_.maxSendBufferBytes) {
        NetTelemetry::add(tel_.sendStalls);
        drop(c, "send backlog overflow");
      }
      return;
    }
    drop(c, "send failed");
    return;
  }
  c.sendBlockedSince = 0.0;
  c.sendBuf.clear();
  c.sendPos = 0;
}

void TcpCommWorld::drop(Connection& c, const char* why) {
  if (!c.sock.valid()) return;
  c.sock.close();
  c.sendBuf = {};
  c.sendPos = 0;
  c.sendBlockedSince = 0.0;
  if (c.role == Role::Pending) return;
  NetTelemetry::add(tel_.disconnects);
  if (c.role != Role::Worker) return;
  workers_[static_cast<std::size_t>(c.id) - 1] = nullptr;
  if (options_.telemetry != nullptr && c.health.seen) {
    auto& reg = options_.telemetry->metrics();
    const std::string prefix = "fleet.r" + std::to_string(c.id) + ".";
    for (const char* name :
         {"execute_ewma_seconds", "tasks_executed", "tasks_failed", "bytes_in",
          "bytes_out", "messages_in", "messages_out", "queue_depth"}) {
      reg.gauge(prefix + name).set(0.0);
    }
    if (c.health.rttSeconds >= 0.0) {
      reg.gauge(prefix + "rtt_seconds").set(0.0);
      reg.gauge(prefix + "clock_offset_seconds").set(0.0);
    }
  }
  Message lost{c.id, kTagWorkerLost, {}, 0, 0};
  lost.payload.pack(std::string(why));
  inbox_.push_back(std::move(lost));
}

void TcpCommWorld::registerPeer(Connection& c, const Hello& hello) {
  NetTelemetry::add(tel_.connects);
  if (hello.peerKind == kPeerClient) {
    c.role = Role::Client;
    c.id = ++lastClientId_;
    // The Welcome's rank field carries the client id; worldSize is the
    // worker world as the client would see it (floored at 2 so the
    // handshake validation on the other end holds before workers join).
    enqueue(c, makeWelcomeFrame(c.id, std::max(size(), 2)), false);
    return;
  }
  workers_.push_back(&c);
  c.role = Role::Worker;
  c.id = static_cast<int>(workers_.size());
  // The join is queued before any send can fail, so a loss never
  // overtakes it.
  inbox_.push_back(Message{c.id, kTagWorkerJoined, {}, 0, 0});
  enqueue(c, makeWelcomeFrame(c.id, size()), false);
  if (greeting_.has_value()) {
    enqueue(c, makeMessageFrame(greeting_->first, std::vector<std::byte>(greeting_->second)),
            false);
  }
}

void TcpCommWorld::serviceRead(Connection& c) {
  const ReadResult read = readAvailable(c.sock, c.decoder);
  NetTelemetry::add(tel_.bytesIn, static_cast<std::int64_t>(read.bytes));
  try {
    while (auto frame = c.decoder.next()) {
      c.lastHeard = monotonicSeconds();
      ++framesReceived_;
      NetTelemetry::add(tel_.framesIn);
      dispatch(c, std::move(*frame));
      if (!c.sock.valid()) return;
    }
  } catch (const ProtocolError&) {
    // Not an sfopt peer, an incompatible one, or a corrupt stream.
    ++decodeErrors_;
    NetTelemetry::add(tel_.decodeErrors);
    drop(c, "protocol violation");
    return;
  }
  if (read.closed != nullptr) drop(c, read.closed);
}

void TcpCommWorld::dispatch(Connection& c, Frame&& frame) {
  switch (c.role) {
    case Role::Pending:
      registerPeer(c, parseHello(frame));  // throws on bad magic/version
      return;
    case Role::Client:
      if (isJobFrame(frame.type)) {
        ClientRequest req{c.id, frame.type, mw::MessageBuffer(std::move(frame.payload))};
        ++messagesReceived_;
        bytesReceived_ += req.payload.sizeBytes();
        NetTelemetry::add(tel_.messagesIn);
        clientInbox_.push_back(std::move(req));
      } else if (frame.type != FrameType::Heartbeat) {
        throw ProtocolError("client sent a non-job frame after registration");
      }
      return;
    case Role::Worker:
      switch (frame.type) {
        case FrameType::Message: {
          Message m = messageFromFrame(std::move(frame), c.id);
          ++messagesReceived_;
          bytesReceived_ += m.payload.sizeBytes();
          NetTelemetry::add(tel_.messagesIn);
          inbox_.push_back(std::move(m));
          return;
        }
        case FrameType::Heartbeat:
          return;  // lastHeard already refreshed
        case FrameType::Telemetry:
          handleSnapshot(c, parseTelemetrySnapshot(frame));
          return;
        default:
          throw ProtocolError("unexpected handshake frame after registration");
      }
  }
}

TcpCommWorld::Connection* TcpCommWorld::findClient(int client) const {
  for (const auto& c : conns_) {
    if (c->role == Role::Client && c->id == client && c->sock.valid()) return c.get();
  }
  return nullptr;
}

std::vector<TcpCommWorld::ClientRequest> TcpCommWorld::takeClientRequests() {
  std::vector<ClientRequest> out(std::make_move_iterator(clientInbox_.begin()),
                                 std::make_move_iterator(clientInbox_.end()));
  clientInbox_.clear();
  return out;
}

void TcpCommWorld::sendToClient(int client, FrameType type, mw::MessageBuffer payload) {
  if (client < 1 || client > lastClientId_) {
    throw std::out_of_range("TcpCommWorld::sendToClient: unknown client id");
  }
  Connection* c = findClient(client);
  if (c == nullptr) {
    NetTelemetry::add(tel_.sendsDropped);
    return;
  }
  enqueue(*c, makeJobFrame(type, payload.releaseWire()), true);
}

int TcpCommWorld::connectedClients() const noexcept {
  return static_cast<int>(std::count_if(conns_.begin(), conns_.end(), [](const auto& c) {
    return c->role == Role::Client && c->sock.valid();
  }));
}

void TcpCommWorld::pump(double timeoutSeconds) {
  // A wake drained by an earlier recv pass still owes its caller a turn.
  pollOnce(std::exchange(woken_, false) ? 0.0 : timeoutSeconds);
  woken_ = false;
}

void TcpCommWorld::wake() noexcept {
  const std::uint64_t one = 1;
  if (::write(wakeFd_.fd(), &one, sizeof one) < 0) {
    // EAGAIN: the counter is saturated, so the fd is already readable and
    // the wake is pending anyway.
  }
}

void TcpCommWorld::handleSnapshot(Connection& c, const TelemetrySnapshot& snap) {
  FleetHealth& h = c.health;
  const double now = masterNow();
  h.seen = true;
  h.executeEwmaSeconds = snap.executeEwmaSeconds;
  h.tasksExecuted = snap.tasksExecuted;
  h.tasksFailed = snap.tasksFailed;
  h.bytesIn = snap.bytesIn;
  h.bytesOut = snap.bytesOut;
  h.messagesIn = snap.messagesIn;
  h.messagesOut = snap.messagesOut;
  h.queueDepth = snap.queueDepth;
  h.lastUpdateSeconds = now;
  // One NTP-style exchange per snapshot: the worker echoes our heartbeat
  // stamp plus how long it held it; what's left of the round trip is wire
  // time, split symmetrically for the offset estimate.
  if (snap.echoMasterTime > 0.0) {
    const double rtt = std::max(0.0, now - snap.echoMasterTime - snap.holdSeconds);
    h.rttSeconds = rtt;
    h.clockOffsetSeconds =
        (snap.workerNow - snap.holdSeconds) - snap.echoMasterTime - rtt / 2.0;
  }
  if (options_.telemetry == nullptr) return;
  auto& reg = options_.telemetry->metrics();
  const std::string prefix = "fleet.r" + std::to_string(c.id) + ".";
  reg.gauge(prefix + "execute_ewma_seconds").set(h.executeEwmaSeconds);
  reg.gauge(prefix + "tasks_executed").set(static_cast<double>(h.tasksExecuted));
  reg.gauge(prefix + "tasks_failed").set(static_cast<double>(h.tasksFailed));
  reg.gauge(prefix + "bytes_in").set(static_cast<double>(h.bytesIn));
  reg.gauge(prefix + "bytes_out").set(static_cast<double>(h.bytesOut));
  reg.gauge(prefix + "messages_in").set(static_cast<double>(h.messagesIn));
  reg.gauge(prefix + "messages_out").set(static_cast<double>(h.messagesOut));
  reg.gauge(prefix + "queue_depth").set(static_cast<double>(h.queueDepth));
  if (h.rttSeconds >= 0.0) {
    reg.gauge(prefix + "rtt_seconds").set(h.rttSeconds);
    reg.gauge(prefix + "clock_offset_seconds").set(h.clockOffsetSeconds);
    // Anchor event for `sfopt trace`: maps this worker's clock onto ours so
    // merged span trees share a timeline.
    telemetry::Event e;
    e.type = "clock";
    e.name = "fleet.clock";
    e.time = now;
    e.numFields = {{"rank", static_cast<double>(c.id)},
                   {"offset_seconds", h.clockOffsetSeconds},
                   {"rtt_seconds", h.rttSeconds}};
    options_.telemetry->sink().emit(e);
  }
}

void TcpCommWorld::pollOnce(double timeoutSeconds) {
  // Order: listener, wake fd, then every connection in table order (a
  // closed one polls as fd -1, which poll ignores).  The table size is
  // snapshotted here: accepts below append connections that were never
  // polled and must not be indexed against this pass's fds.
  std::vector<pollfd> fds;
  fds.push_back({listener_.fd(), POLLIN, 0});
  fds.push_back({wakeFd_.fd(), POLLIN, 0});
  const std::size_t polled = conns_.size();
  for (const auto& c : conns_) {
    const short events = c->sendPos < c->sendBuf.size() ? POLLIN | POLLOUT : POLLIN;
    fds.push_back({c->sock.fd(), events, 0});
  }

  const int ready =
      ::poll(fds.data(), fds.size(), toPollMillis(std::min(timeoutSeconds, kPollSliceSeconds)));
  if (ready > 0) {
    if (fds[0].revents & POLLIN) {
      while (auto accepted = tcpAccept(listener_)) {
        auto c = std::make_unique<Connection>();
        c->sock = std::move(*accepted);
        c->decoder = FrameDecoder(options_.maxFrameBytes);
        c->lastHeard = monotonicSeconds();
        conns_.push_back(std::move(c));
      }
    }
    if (fds[1].revents & POLLIN) {
      std::uint64_t count = 0;
      if (::read(wakeFd_.fd(), &count, sizeof count) < 0) {
        // Only this thread reads the fd, so after POLLIN this succeeds.
      }
      woken_ = true;
    }
    for (std::size_t i = 0; i < polled; ++i) {
      const short re = fds[i + 2].revents;
      if (re & (POLLIN | POLLERR | POLLHUP)) serviceRead(*conns_[i]);
      if (re & POLLOUT) flush(*conns_[i]);
    }
  }

  // The deadline sweep, over every connection: beat live workers on the
  // cadence; drop a worker silent past the heartbeat timeout, or a
  // connection still without its Hello that long after the accept; drop
  // any connection whose socket has refused our bytes past the send-stall
  // deadline (a half-open worker keeps heartbeating us, so recv silence
  // never fires for it).
  const double now = monotonicSeconds();
  const double stallTimeout = options_.sendStallTimeoutSeconds > 0.0
                                  ? options_.sendStallTimeoutSeconds
                                  : options_.heartbeatTimeoutSeconds;
  const bool beat = now - lastBeat_ >= options_.heartbeatIntervalSeconds;
  if (beat) lastBeat_ = now;
  for (const auto& conn : conns_) {
    Connection& c = *conn;
    if (beat && c.role == Role::Worker && c.sock.valid()) {
      enqueue(c, makeHeartbeatFrame(masterNow()), false);
      NetTelemetry::add(tel_.heartbeatsSent);
    }
    if (!c.sock.valid()) continue;
    if (c.role != Role::Client && now - c.lastHeard > options_.heartbeatTimeoutSeconds) {
      const bool worker = c.role == Role::Worker;
      if (worker) NetTelemetry::add(tel_.heartbeatMisses);
      drop(c, worker ? "heartbeat timeout" : "handshake timeout");
    } else if (c.sendBlockedSince > 0.0 && now - c.sendBlockedSince > stallTimeout) {
      NetTelemetry::add(tel_.sendStalls);
      drop(c, "send stall");
    }
  }
  std::erase_if(conns_, [](const auto& c) { return !c->sock.valid(); });
}

std::optional<Message> TcpCommWorld::await(Rank at, const char* what, double timeoutSeconds,
                                           Rank source, int tag) {
  if (at != 0) {
    throw std::invalid_argument(std::string("TcpCommWorld::") + what +
                                ": only rank 0 lives on the master transport");
  }
  return awaitMatch(inbox_, source, tag, timeoutSeconds,
                    [this](double slice) { pollOnce(slice); });
}

Message TcpCommWorld::recv(Rank at, Rank source, int tag) {
  return std::move(*await(at, "recv", kForever, source, tag));
}

std::optional<Message> TcpCommWorld::recvFor(Rank at, double timeoutSeconds, Rank source,
                                             int tag) {
  return await(at, "recvFor", timeoutSeconds, source, tag);
}

std::optional<Message> TcpCommWorld::tryRecv(Rank at, Rank source, int tag) {
  return await(at, "tryRecv", 0.0, source, tag);
}

// ---------------------------------------------------------------------------
// TcpWorkerTransport (worker)
// ---------------------------------------------------------------------------

TcpWorkerTransport::TcpWorkerTransport(const std::string& host, std::uint16_t port,
                                       Options options)
    : options_(options),
      sock_(tcpConnect(host, port, options.connectTimeoutSeconds)),
      decoder_(options.maxFrameBytes),
      tel_(NetTelemetry::registerIn(options.telemetry)) {
  {
    std::lock_guard lock(sendMutex_);
    writeFrameLocked(makeHelloFrame(), /*nothrow=*/false);
  }
  // Wait for the Welcome; any stray frames decoded alongside it (the
  // greeting often rides the same segment) stay queued for recv().  The
  // master-silence clock starts now: readSome() measures it from
  // lastHeard_, and left at zero it would read the whole uptime as silence.
  lastHeard_ = monotonicSeconds();
  const double deadline = monotonicSeconds() + options_.handshakeTimeoutSeconds;
  while (rank_ < 0) {
    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0.0) {
      throw ConnectionLost("handshake: no welcome from master within " +
                           std::to_string(options_.handshakeTimeoutSeconds) + "s");
    }
    readSome(std::min(remaining, kPollSliceSeconds));
  }
  NetTelemetry::add(tel_.connects);
  beat_ = std::thread([this] { beatLoop(); });
}

TcpWorkerTransport::~TcpWorkerTransport() {
  stopping_.store(true);
  stopCv_.notify_all();
  if (beat_.joinable()) beat_.join();
  sock_.close();
}

double TcpWorkerTransport::localNow() const {
  return options_.telemetry != nullptr ? options_.telemetry->clock().now()
                                       : monotonicSeconds();
}

void TcpWorkerTransport::beatLoop() {
  std::unique_lock lock(stopMutex_);
  while (!stopping_.load()) {
    stopCv_.wait_for(lock,
                     std::chrono::duration<double>(options_.heartbeatIntervalSeconds),
                     [this] { return stopping_.load(); });
    if (stopping_.load() || dead_.load()) continue;
    // Poll the provider while holding its mutex, so setStatsProvider({})
    // is a barrier: once it returns, the callback (and whatever worker
    // state it captured) is guaranteed not to be mid-invocation here.
    std::optional<WorkerStats> stats;
    {
      std::lock_guard providerLock(providerMutex_);
      if (statsProvider_) stats = statsProvider_();
    }
    std::lock_guard sendLock(sendMutex_);
    writeFrameLocked(makeHeartbeatFrame(localNow()), /*nothrow=*/true);
    NetTelemetry::add(tel_.heartbeatsSent);
    if (stats.has_value() && !dead_.load()) {
      TelemetrySnapshot snap;
      const double echo = lastMasterBeat_.load();
      snap.echoMasterTime = echo;
      snap.workerNow = localNow();
      snap.holdSeconds = echo > 0.0 ? snap.workerNow - lastMasterBeatLocal_.load() : 0.0;
      snap.tasksExecuted = stats->tasksExecuted;
      snap.tasksFailed = stats->tasksFailed;
      snap.executeEwmaSeconds = stats->executeEwmaSeconds;
      snap.bytesIn = rawBytesIn_.load();
      snap.bytesOut = rawBytesOut_.load();
      snap.messagesIn = atomicMessagesIn_.load();
      snap.messagesOut = atomicMessagesOut_.load();
      snap.queueDepth = inboxDepth_.load();
      writeFrameLocked(makeTelemetryFrame(snap), /*nothrow=*/true);
    }
  }
}

void TcpWorkerTransport::writeFrameLocked(const Frame& frame, bool nothrow) {
  std::vector<std::byte> wire;
  appendFrame(wire, frame);
  const double writeTimeout = options_.masterTimeoutSeconds > 0.0
                                  ? options_.masterTimeoutSeconds
                                  : kDefaultWriteTimeoutSeconds;
  const double deadline = monotonicSeconds() + writeTimeout;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    if (stopping_.load()) {
      // Destruction is waiting on the heartbeat thread (which writes under
      // sendMutex_); abandon the partial write so it can exit.
      dead_.store(true);
      if (nothrow) return;
      throw ConnectionLost("transport stopping while sending");
    }
    const ssize_t n =
        ::send(sock_.fd(), wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (monotonicSeconds() >= deadline) {
        dead_.store(true);
        NetTelemetry::add(tel_.disconnects);
        if (nothrow) return;
        throw ConnectionLost("master stopped draining its socket for " +
                             std::to_string(writeTimeout) + "s while sending");
      }
      pollfd pfd{sock_.fd(), POLLOUT, 0};
      (void)::poll(&pfd, 1, toPollMillis(kPollSliceSeconds));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    dead_.store(true);
    if (nothrow) return;
    throw ConnectionLost("master connection lost while sending");
  }
  ++framesSent_;
  rawBytesOut_ += wire.size();
  NetTelemetry::add(tel_.framesOut);
  NetTelemetry::add(tel_.bytesOut, static_cast<std::int64_t>(wire.size()));
}

void TcpWorkerTransport::readSome(double timeoutSeconds) {
  if (dead_.load()) throw ConnectionLost("master connection lost");
  pollfd pfd{sock_.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, toPollMillis(timeoutSeconds)) <= 0) {
    if (options_.masterTimeoutSeconds > 0.0 &&
        monotonicSeconds() - lastHeard_ > options_.masterTimeoutSeconds) {
      dead_.store(true);
      NetTelemetry::add(tel_.heartbeatMisses);
      throw ConnectionLost("master silent past the heartbeat timeout");
    }
    return;
  }
  const ReadResult read = readAvailable(sock_, decoder_);
  if (read.bytes > 0) lastHeard_ = monotonicSeconds();
  rawBytesIn_ += read.bytes;
  NetTelemetry::add(tel_.bytesIn, static_cast<std::int64_t>(read.bytes));
  if (read.closed != nullptr) {
    // Mark dead but dispatch what is buffered first (a shutdown message
    // often rides the connection's final segments); the next readSome()
    // throws via the dead_ check at entry.
    dead_.store(true);
    NetTelemetry::add(tel_.disconnects);
  }
  try {
    while (auto frame = decoder_.next()) {
      ++framesReceived_;
      NetTelemetry::add(tel_.framesIn);
      switch (frame->type) {
        case FrameType::Message: {
          Message m = messageFromFrame(std::move(*frame), 0);
          ++messagesReceived_;
          bytesReceived_ += m.payload.sizeBytes();
          ++atomicMessagesIn_;
          inbox_.push_back(std::move(m));
          inboxDepth_.store(static_cast<std::uint32_t>(inbox_.size()));
          NetTelemetry::add(tel_.messagesIn);
          break;
        }
        case FrameType::Heartbeat:
          if (frame->senderTime > 0.0) {
            lastMasterBeat_.store(frame->senderTime);
            lastMasterBeatLocal_.store(localNow());
          }
          break;
        case FrameType::Welcome:
          if (rank_ < 0) {
            const Welcome welcome = parseWelcome(*frame);
            rank_ = welcome.rank;
            worldSize_ = welcome.worldSize;
            lastHeard_ = monotonicSeconds();
            break;
          }
          [[fallthrough]];
        default:
          dead_.store(true);
          throw ConnectionLost("master sent an unexpected handshake frame");
      }
    }
  } catch (const ProtocolError&) {
    ++decodeErrors_;
    NetTelemetry::add(tel_.decodeErrors);
    dead_.store(true);
    throw;
  }
}

void TcpWorkerTransport::setStatsProvider(std::function<WorkerStats()> provider) {
  std::lock_guard lock(providerMutex_);
  statsProvider_ = std::move(provider);
}

void TcpWorkerTransport::send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
                              std::uint64_t traceId, std::uint64_t parentSpan) {
  if (from != rank_) {
    throw std::invalid_argument(
        "TcpWorkerTransport::send(from): only the assigned rank lives on this transport");
  }
  if (to != 0) {
    throw std::out_of_range("TcpWorkerTransport::send: workers only talk to rank 0");
  }
  const Frame frame = makeMessageFrame(tag, payload.releaseWire(), traceId, parentSpan);
  std::lock_guard lock(sendMutex_);
  writeFrameLocked(frame, /*nothrow=*/false);
  ++messagesSent_;
  ++atomicMessagesOut_;
  // Frame header: 4 len + 1 type + 4 tag + 8 trace + 8 parent.
  bytesSent_ += frame.payload.size() + 25;
  NetTelemetry::add(tel_.messagesOut);
}

std::optional<Message> TcpWorkerTransport::await(Rank at, const char* what,
                                                 double timeoutSeconds, Rank source, int tag) {
  if (at != rank_) {
    throw std::invalid_argument(std::string("TcpWorkerTransport::") + what +
                                ": only the assigned rank lives on this transport");
  }
  auto m = awaitMatch(inbox_, source, tag, timeoutSeconds,
                      [this](double slice) { readSome(slice); });
  inboxDepth_.store(static_cast<std::uint32_t>(inbox_.size()));
  return m;
}

Message TcpWorkerTransport::recv(Rank at, Rank source, int tag) {
  return std::move(*await(at, "recv", kForever, source, tag));
}

std::optional<Message> TcpWorkerTransport::recvFor(Rank at, double timeoutSeconds,
                                                   Rank source, int tag) {
  return await(at, "recvFor", timeoutSeconds, source, tag);
}

std::optional<Message> TcpWorkerTransport::tryRecv(Rank at, Rank source, int tag) {
  return await(at, "tryRecv", 0.0, source, tag);
}

double backoffDelaySeconds(int attempt, double initialBackoffSeconds,
                           std::uint64_t jitterSeed) {
  const int doublings = std::min(std::max(attempt, 1) - 1, 60);
  const double base = std::min(std::ldexp(initialBackoffSeconds, doublings), 5.0);
  // splitmix64 finalizer over (seed, attempt): cheap, stateless, and
  // well-scrambled even for adjacent seeds (rank 1 vs rank 2).
  std::uint64_t z =
      jitterSeed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  return base * (0.5 + unit);
}

std::unique_ptr<TcpWorkerTransport> connectWithBackoff(
    const std::string& host, std::uint16_t port, int attempts, double initialBackoffSeconds,
    const TcpWorkerTransport::Options& options, std::uint64_t jitterSeed) {
  for (int attempt = 1;; ++attempt) {
    try {
      return std::make_unique<TcpWorkerTransport>(host, port, options);
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        backoffDelaySeconds(attempt, initialBackoffSeconds, jitterSeed)));
  }
}

}  // namespace sfopt::net
