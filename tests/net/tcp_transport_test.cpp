#include "net/tcp_transport.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mw/mw_task.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace sfopt;
using namespace sfopt::net;

mw::MessageBuffer payload(std::int64_t v) {
  mw::MessageBuffer b;
  b.pack(v);
  return b;
}

std::unique_ptr<TcpWorkerTransport> connectTo(const TcpCommWorld& master,
                                              TcpWorkerTransport::Options opts = {}) {
  return std::make_unique<TcpWorkerTransport>("127.0.0.1", master.port(), opts);
}

/// Drive the worker-side connect on a thread while the master polls — both
/// ends of the handshake need cycles in a single-process test.
std::unique_ptr<TcpWorkerTransport> joinWorker(TcpCommWorld& master,
                                               TcpWorkerTransport::Options opts = {}) {
  std::unique_ptr<TcpWorkerTransport> worker;
  std::thread t([&] { worker = connectTo(master, opts); });
  (void)master.waitForWorkers(master.liveWorkers() + 1, 10.0);
  t.join();
  return worker;
}

/// A peer that speaks the wire protocol by hand over a raw socket, so a
/// test controls exactly which bytes reach the master and when the
/// connection closes.  Single-threaded: the helpers pump the master while
/// they wait.
struct RawPeer {
  Socket sock;
  FrameDecoder decoder;

  explicit RawPeer(const TcpCommWorld& master)
      : sock(tcpConnect("127.0.0.1", master.port(), 5.0)) {}

  /// Queue `wire` on the socket; false once the kernel refuses bytes (the
  /// master stopped draining, or dropped the connection).
  bool write(const std::vector<std::byte>& wire) const {
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(sock.fd(), wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool write(const Frame& frame) const {
    std::vector<std::byte> wire;
    appendFrame(wire, frame);
    return write(wire);
  }

  /// Pump the master until a frame reaches this peer.
  std::optional<Frame> await(TcpCommWorld& master, double timeoutSeconds) {
    const double deadline = monotonicSeconds() + timeoutSeconds;
    std::byte chunk[4096];
    while (monotonicSeconds() < deadline) {
      if (auto frame = decoder.next()) return frame;
      master.pump(0.01);
      const ssize_t n = ::recv(sock.fd(), chunk, sizeof chunk, 0);
      if (n > 0) decoder.feed(chunk, static_cast<std::size_t>(n));
      if (n == 0) return std::nullopt;
    }
    return std::nullopt;
  }

  /// Pump the master until it closes this connection (a read returns 0).
  bool closedByMaster(TcpCommWorld& master, double timeoutSeconds) const {
    const double deadline = monotonicSeconds() + timeoutSeconds;
    std::byte chunk[4096];
    while (monotonicSeconds() < deadline) {
      master.pump(0.01);
      const ssize_t n = ::recv(sock.fd(), chunk, sizeof chunk, 0);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    }
    return false;
  }
};

/// Pump the master until a client request arrives (or give up).
std::vector<TcpCommWorld::ClientRequest> awaitRequests(TcpCommWorld& master,
                                                       double timeoutSeconds) {
  const double deadline = monotonicSeconds() + timeoutSeconds;
  std::vector<TcpCommWorld::ClientRequest> reqs;
  while (reqs.empty() && monotonicSeconds() < deadline) {
    master.pump(0.01);
    reqs = master.takeClientRequests();
  }
  return reqs;
}

mw::MessageBuffer jobId(std::uint64_t id) {
  mw::MessageBuffer b;
  b.pack(id);
  return b;
}

TEST(TcpTransport, HandshakeAssignsRanksInConnectionOrder) {
  TcpCommWorld master(0);
  EXPECT_GT(master.port(), 0);
  EXPECT_EQ(master.size(), 1);

  auto w1 = joinWorker(master);
  auto w2 = joinWorker(master);
  EXPECT_EQ(w1->rank(), 1);
  EXPECT_EQ(w2->rank(), 2);
  EXPECT_EQ(master.size(), 3);
  EXPECT_EQ(master.liveWorkers(), 2);

  // The join events are visible to the driver as control messages.
  auto j1 = master.tryRecv(0, kAnySource, kTagWorkerJoined);
  ASSERT_TRUE(j1.has_value());
  EXPECT_EQ(j1->source, 1);
}

TEST(TcpTransport, EchoRoundTrip) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);

  master.send(0, 1, 5, payload(123));
  Message onWorker = worker->recv(1, 0, 5);
  EXPECT_EQ(onWorker.source, 0);
  EXPECT_EQ(onWorker.payload.unpackInt64(), 123);

  worker->send(1, 0, 6, payload(456));
  Message onMaster = master.recv(0, 1, 6);
  EXPECT_EQ(onMaster.source, 1);
  EXPECT_EQ(onMaster.payload.unpackInt64(), 456);
  EXPECT_GT(master.bytesSent(), 0u);
  EXPECT_EQ(master.messagesSent(), 1u);
  EXPECT_EQ(worker->messagesSent(), 1u);
}

TEST(TcpTransport, GreetingDeliveredToEveryJoiner) {
  TcpCommWorld master(0);
  mw::MessageBuffer cfg;
  cfg.pack(std::string("config-blob"));
  master.setGreeting(mw::kTagConfig, std::move(cfg));

  auto w1 = joinWorker(master);
  auto w2 = joinWorker(master);
  for (auto* w : {w1.get(), w2.get()}) {
    auto m = w->recvFor(w->rank(), 5.0, 0, mw::kTagConfig);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload.unpackString(), "config-blob");
  }
}

TEST(TcpTransport, RecvForTimesOutCleanly) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);
  const auto m = master.recvFor(0, 0.05, kAnySource, 99);
  EXPECT_FALSE(m.has_value());
  // The worker is still healthy afterwards.
  master.send(0, 1, 1, payload(7));
  EXPECT_EQ(worker->recv(1, 0, 1).payload.unpackInt64(), 7);
}

TEST(TcpTransport, DisconnectSynthesizesWorkerLost) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);
  (void)master.tryRecv(0, kAnySource, kTagWorkerJoined);

  worker.reset();  // abrupt close
  auto lost = master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->source, 1);
  EXPECT_EQ(master.liveWorkers(), 0);
  EXPECT_EQ(master.size(), 2);  // the rank is never reused

  // Sending to the lost rank is a silent drop, not an error.
  master.send(0, 1, 1, payload(1));
}

TEST(TcpTransport, HeartbeatSilenceMarksWorkerLost) {
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 0.3;
  TcpCommWorld master(0, opts);

  // A worker whose heartbeat thread never beats: make the interval so long
  // the master's silence window always expires first.
  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 60.0;
  auto worker = joinWorker(master, wopts);

  auto lost = master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->source, 1);
  EXPECT_EQ(master.liveWorkers(), 0);
}

TEST(TcpTransport, HeartbeatsKeepIdleWorkerAlive) {
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 0.4;
  TcpCommWorld master(0, opts);

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker = joinWorker(master, wopts);

  // Idle for several silence windows; the background beats must keep the
  // peer alive even though no application traffic flows.  The worker side
  // must drain its socket for the master's beats, as a real worker does
  // while blocked in recv.
  std::atomic<bool> stop{false};
  std::thread drain([&] {
    while (!stop.load()) (void)worker->tryRecv(1, kAnySource, 99);
  });
  const auto m = master.recvFor(0, 1.2, kAnySource, kTagWorkerLost);
  stop.store(true);
  drain.join();
  EXPECT_FALSE(m.has_value());
  EXPECT_EQ(master.liveWorkers(), 1);
}

TEST(TcpTransport, ReconnectGetsFreshRank) {
  TcpCommWorld master(0);
  auto w1 = joinWorker(master);
  w1.reset();
  (void)master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);

  auto w2 = joinWorker(master);
  EXPECT_EQ(w2->rank(), 2);
  EXPECT_EQ(master.size(), 3);
  EXPECT_EQ(master.liveWorkers(), 1);
}

TEST(TcpTransport, WorkerSendAfterMasterGoneThrowsConnectionLost) {
  auto master = std::make_unique<TcpCommWorld>(0);
  auto worker = joinWorker(*master);
  master.reset();
  // The first send may still land in kernel buffers; the loss must surface
  // within a couple of attempts.
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) {
          worker->send(1, 0, 1, payload(i));
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      },
      ConnectionLost);
}

TEST(TcpTransport, WorkerRecvAfterMasterGoneThrowsConnectionLost) {
  auto master = std::make_unique<TcpCommWorld>(0);
  auto worker = joinWorker(*master);
  master.reset();
  EXPECT_THROW((void)worker->recv(1), ConnectionLost);
}

TEST(TcpTransport, MasterOnlyAcceptsRankZeroCalls) {
  TcpCommWorld master(0);
  EXPECT_THROW((void)master.recv(1), std::invalid_argument);
  EXPECT_THROW(master.send(1, 0, 1, {}), std::invalid_argument);
  EXPECT_THROW(master.send(0, 5, 1, {}), std::out_of_range);
}

TEST(TcpTransport, WaitForWorkersTimesOut) {
  TcpCommWorld master(0);
  EXPECT_THROW((void)master.waitForWorkers(1, 0.1), std::runtime_error);
}

TEST(TcpTransport, WelcomeSlowerThanOnePollSliceDoesNotTripTheMasterTimeout) {
  // The worker's master-silence clock must start at the handshake, not at
  // boot: a master that answers the Hello a few poll slices late (busy,
  // or still starting up) is not silent past a 30 s timeout.
  TcpCommWorld master(0);
  TcpWorkerTransport::Options wopts;
  wopts.masterTimeoutSeconds = 30.0;
  std::unique_ptr<TcpWorkerTransport> worker;
  std::string error;
  std::thread joiner([&] {
    try {
      worker = std::make_unique<TcpWorkerTransport>("127.0.0.1", master.port(), wopts);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  // The master does not service its listener for three 0.2 s poll slices.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  int joined = 0;
  try {
    joined = master.waitForWorkers(1, 10.0);
  } catch (const std::exception&) {
  }
  joiner.join();
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->rank(), 1);
  EXPECT_EQ(joined, 1);
}

TEST(TcpTransport, ConnectWithBackoffEventuallyThrows) {
  // Nothing listens on the master's port once it is closed.
  std::uint16_t port = 0;
  {
    TcpCommWorld master(0);
    port = master.port();
  }
  EXPECT_THROW((void)connectWithBackoff("127.0.0.1", port, 2, 0.01), std::exception);
}

TEST(TcpTransport, TelemetryCountsTraffic) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  auto worker = joinWorker(master);

  master.send(0, 1, 1, payload(1));
  (void)worker->recv(1, 0, 1);
  worker->send(1, 0, 2, payload(2));
  (void)master.recv(0, 1, 2);
  worker.reset();
  (void)master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);

  auto& reg = spine.metrics();
  EXPECT_EQ(reg.counter("net.connects").value(), 1);
  EXPECT_EQ(reg.counter("net.disconnects").value(), 1);
  EXPECT_GE(reg.counter("net.messages_out").value(), 1);
  EXPECT_GE(reg.counter("net.messages_in").value(), 1);
  EXPECT_GT(reg.counter("net.bytes_out").value(), 0);
  EXPECT_GT(reg.counter("net.bytes_in").value(), 0);
  master.send(0, 1, 1, payload(3));  // to the dead rank
  EXPECT_EQ(reg.counter("net.sends_dropped").value(), 1);
}

TEST(TcpTransport, ReceiveSideCountersTrackTraffic) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  auto worker = joinWorker(master);

  master.send(0, 1, 1, payload(1));
  (void)worker->recv(1, 0, 1);
  worker->send(1, 0, 2, payload(2));
  (void)master.recv(0, 1, 2);

  // Both ends expose the receive-side ledger directly on the Transport.
  EXPECT_EQ(master.messagesReceived(), 1u);
  EXPECT_GT(master.bytesReceived(), 0u);
  EXPECT_GE(master.framesSent(), 1u);
  EXPECT_GE(master.framesReceived(), 1u);
  EXPECT_EQ(master.decodeErrors(), 0u);
  EXPECT_EQ(worker->messagesReceived(), 1u);
  EXPECT_GT(worker->bytesReceived(), 0u);
  EXPECT_GE(worker->framesSent(), 1u);
  EXPECT_GE(worker->framesReceived(), 1u);
  EXPECT_EQ(worker->decodeErrors(), 0u);

  // And the master's publish to the metrics registry includes frames.
  auto& reg = spine.metrics();
  EXPECT_GE(reg.counter("net.frames_out").value(), 1);
  EXPECT_GE(reg.counter("net.frames_in").value(), 1);
  EXPECT_EQ(reg.counter("net.decode_errors").value(), 0);
}

TEST(TcpTransport, TraceContextRidesTheWireBothWays) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);

  master.send(0, 1, 5, payload(1), /*traceId=*/42, /*parentSpan=*/1000);
  Message onWorker = worker->recv(1, 0, 5);
  EXPECT_EQ(onWorker.traceId, 42u);
  EXPECT_EQ(onWorker.parentSpan, 1000u);

  worker->send(1, 0, 6, payload(2), onWorker.traceId, onWorker.parentSpan);
  Message onMaster = master.recv(0, 1, 6);
  EXPECT_EQ(onMaster.traceId, 42u);
  EXPECT_EQ(onMaster.parentSpan, 1000u);
}

TEST(TcpTransport, FleetSnapshotsAggregateOnMaster) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.telemetry = &spine;
  opts.heartbeatIntervalSeconds = 0.05;
  TcpCommWorld master(0, opts);

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker = joinWorker(master, wopts);
  worker->setStatsProvider(
      [] { return WorkerStats{/*tasksExecuted=*/7, /*tasksFailed=*/1, 0.25}; });

  // Drive both event loops until the snapshot lands: the master's pump
  // sends heartbeats, the worker's recv path reads them (storing the echo
  // stamp the beat thread ships back), and the master's pump then folds
  // the returning snapshot into fleetHealth().
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    (void)worker->recvFor(1, 0.02, 0, 99);
    (void)master.recvFor(0, 0.03, kAnySource, 99);
    const auto fleet = master.fleetHealth();
    seen = !fleet.empty() && fleet[0].seen && fleet[0].rttSeconds >= 0.0;
  }
  ASSERT_TRUE(seen);
  const auto fleet = master.fleetHealth();
  EXPECT_EQ(fleet[0].tasksExecuted, 7u);
  EXPECT_EQ(fleet[0].tasksFailed, 1u);
  EXPECT_DOUBLE_EQ(fleet[0].executeEwmaSeconds, 0.25);
  EXPECT_GE(fleet[0].rttSeconds, 0.0);
  EXPECT_LT(fleet[0].rttSeconds, 5.0);

  // The per-rank gauges mirror the snapshot.
  auto& reg = spine.metrics();
  EXPECT_EQ(reg.gauge("fleet.r1.tasks_executed").value(), 7.0);
  EXPECT_EQ(reg.gauge("fleet.r1.tasks_failed").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("fleet.r1.execute_ewma_seconds").value(), 0.25);

  worker->setStatsProvider({});  // barrier before the provider state dies
}

// -- Connection lifecycle at the edges of the wire --------------------------

TEST(TcpTransport, HelloInTheFinalSegmentSurfacesAsJoinThenLoss) {
  // The worker's only bytes ride the same segments as its FIN: the master
  // reads the Hello and the EOF in one pass, and the completed
  // registration must surface (as a join, then a loss), not vanish.
  TcpCommWorld master(0);
  {
    RawPeer peer(master);
    ASSERT_TRUE(peer.write(makeHelloFrame()));
  }  // closed before the master has read anything
  auto first = master.recvFor(0, 5.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tag, kTagWorkerJoined);
  EXPECT_EQ(first->source, 1);
  auto second = master.recvFor(0, 5.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tag, kTagWorkerLost);
  EXPECT_EQ(second->source, 1);
  EXPECT_EQ(master.liveWorkers(), 0);
}

TEST(TcpTransport, ClientRequestSentJustBeforeCloseStillSurfaces) {
  TcpCommWorld master(0);
  {
    RawPeer client(master);
    ASSERT_TRUE(client.write(makeHelloFrame(kPeerClient)));
    auto welcome = client.await(master, 5.0);
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->type, FrameType::Welcome);
    EXPECT_EQ(master.connectedClients(), 1);
    ASSERT_TRUE(client.write(makeJobFrame(FrameType::JobStatus, jobId(7).releaseWire())));
  }  // the request and the FIN arrive together
  const auto reqs = awaitRequests(master, 5.0);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].type, FrameType::JobStatus);
  mw::MessageBuffer body = reqs[0].payload;
  EXPECT_EQ(body.unpackUint64(), 7u);
  for (int i = 0; i < 100 && master.connectedClients() > 0; ++i) master.pump(0.01);
  EXPECT_EQ(master.connectedClients(), 0);
}

TEST(TcpTransport, HandshakeDeadlineDropsSilentAndHalfHelloConnections) {
  // An accepted connection that never completes its Hello must not hold
  // its fd forever: past heartbeatTimeoutSeconds the master closes it.
  TcpCommWorld::Options opts;
  opts.heartbeatTimeoutSeconds = 0.3;
  TcpCommWorld master(0, opts);
  RawPeer silent(master);
  RawPeer halfHello(master);
  std::vector<std::byte> hello;
  appendFrame(hello, makeHelloFrame());
  hello.resize(hello.size() / 2);
  ASSERT_TRUE(halfHello.write(hello));

  EXPECT_TRUE(silent.closedByMaster(master, 5.0));
  EXPECT_TRUE(halfHello.closedByMaster(master, 5.0));
  EXPECT_EQ(master.decodeErrors(), 0u);
  EXPECT_EQ(master.liveWorkers(), 0);

  // The deadline costs a real worker nothing: it still joins as rank 1.
  auto worker = joinWorker(master);
  EXPECT_EQ(worker->rank(), 1);
}

TEST(TcpTransport, ClientThatNeverReadsIsDroppedAtTheBacklogCap) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.maxSendBufferBytes = std::size_t{64} << 10;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  RawPeer client(master);
  ASSERT_TRUE(client.write(makeHelloFrame(kPeerClient)));

  // Flood status requests and answer each with a large reply the client
  // never reads: once the kernel buffers fill, the backlog passes the cap.
  mw::MessageBuffer reply;
  reply.pack(std::string(std::size_t{1} << 20, 'x'));
  int id = 0;
  for (int i = 0; i < 64 && (id == 0 || master.connectedClients() > 0); ++i) {
    (void)client.write(makeJobFrame(FrameType::JobStatus, jobId(1).releaseWire()));
    for (auto& req : awaitRequests(master, 0.2)) {
      id = req.client;
      master.sendToClient(req.client, FrameType::JobStatus, reply);
    }
  }
  ASSERT_GT(id, 0) << "the client never registered";
  EXPECT_EQ(master.connectedClients(), 0) << "the backlog cap never dropped the client";
  auto& reg = spine.metrics();
  EXPECT_GE(reg.counter("net.send_stalls").value(), 1);

  // A reply to the retired id is a counted drop, never a throw.
  const std::int64_t dropped = reg.counter("net.sends_dropped").value();
  EXPECT_NO_THROW(master.sendToClient(id, FrameType::JobStatus, jobId(1)));
  EXPECT_EQ(reg.counter("net.sends_dropped").value(), dropped + 1);
}

TEST(TcpTransport, ClosedClientsLeaveTheTableAndIdsAreNeverReused) {
  TcpCommWorld master(0);
  // One request/response session: Hello, Welcome, JobStatus, reply.
  auto session = [&master](RawPeer& client) {
    EXPECT_TRUE(client.write(makeHelloFrame(kPeerClient)));
    auto welcome = client.await(master, 5.0);
    EXPECT_TRUE(welcome.has_value() && welcome->type == FrameType::Welcome);
    const int id = welcome.has_value() ? parseWelcome(*welcome).rank : 0;
    EXPECT_TRUE(client.write(makeJobFrame(FrameType::JobStatus, jobId(0).releaseWire())));
    const auto reqs = awaitRequests(master, 5.0);
    EXPECT_EQ(reqs.size(), 1u);
    for (const auto& req : reqs) master.sendToClient(req.client, FrameType::JobStatus, jobId(0));
    auto reply = client.await(master, 5.0);
    EXPECT_TRUE(reply.has_value() && reply->type == FrameType::JobStatus);
    return id;
  };
  for (int i = 1; i <= 50; ++i) {
    RawPeer client(master);
    EXPECT_EQ(session(client), i);
  }
  for (int i = 0; i < 100 && master.connectedClients() > 0; ++i) master.pump(0.01);
  EXPECT_EQ(master.connectedClients(), 0);

  RawPeer late(master);
  EXPECT_EQ(session(late), 51);
  EXPECT_EQ(master.connectedClients(), 1);
}

}  // namespace
