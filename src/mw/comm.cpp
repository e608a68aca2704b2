#include "mw/comm.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace sfopt::mw {
namespace {

/// One year is as good as forever for a receive timeout.
constexpr double kMaxTimeoutSeconds = 365.0 * 24.0 * 3600.0;

}  // namespace

CommWorld::CommWorld(int size) {
  if (size < 1) throw std::invalid_argument("CommWorld: size must be >= 1");
  boxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) boxes_.push_back(std::make_unique<Mailbox>());
}

void CommWorld::checkRank(Rank r, const char* what) const {
  if (r < 0 || r >= size()) {
    throw std::out_of_range(std::string("CommWorld::") + what + ": rank out of range");
  }
}

void CommWorld::send(Rank from, Rank to, int tag, MessageBuffer payload,
                     std::uint64_t traceId, std::uint64_t parentSpan) {
  checkRank(from, "send(from)");
  checkRank(to, "send(to)");
  {
    std::lock_guard lock(statsMutex_);
    ++messagesSent_;
    bytesSent_ += payload.sizeBytes();
  }
  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  {
    std::lock_guard lock(box.mutex);
    box.queue.push_back(Message{from, tag, std::move(payload), traceId, parentSpan});
  }
  box.cv.notify_all();
}

void CommWorld::countReceived(const Message& m) {
  std::lock_guard lock(statsMutex_);
  ++messagesReceived_;
  bytesReceived_ += m.payload.sizeBytes();
}

std::optional<Message> CommWorld::await(Rank at, const char* what, double timeoutSeconds,
                                        Rank source, int tag) {
  checkRank(at, what);
  Mailbox& box = *boxes_[static_cast<std::size_t>(at)];
  // Clamp before the duration_cast: a huge timeout (say 1e18 s) overflows
  // steady_clock's representation and yields a bogus (possibly already
  // past) deadline.  NaN and negative values collapse to an immediate poll.
  const double clamped =
      timeoutSeconds > 0.0 ? std::min(timeoutSeconds, kMaxTimeoutSeconds) : 0.0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(clamped));
  std::unique_lock lock(box.mutex);
  bool timedOut = clamped <= 0.0;
  for (;;) {
    if (auto m = net::takeMatching(box.queue, source, tag)) {
      countReceived(*m);
      return m;
    }
    if (timedOut) return std::nullopt;
    // After a timeout the loop scans once more: a message may have slipped
    // in between the timeout and re-acquiring the lock.
    timedOut = box.cv.wait_until(lock, deadline) == std::cv_status::timeout;
  }
}

Message CommWorld::recv(Rank at, Rank source, int tag) {
  for (;;) {
    if (auto m = await(at, "recv", kMaxTimeoutSeconds, source, tag)) return std::move(*m);
  }
}

std::optional<Message> CommWorld::recvFor(Rank at, double timeoutSeconds, Rank source, int tag) {
  return await(at, "recvFor", timeoutSeconds, source, tag);
}

std::optional<Message> CommWorld::tryRecv(Rank at, Rank source, int tag) {
  return await(at, "tryRecv", 0.0, source, tag);
}

std::size_t CommWorld::queuedAt(Rank at) const {
  checkRank(at, "queuedAt");
  const Mailbox& box = *boxes_[static_cast<std::size_t>(at)];
  std::lock_guard lock(box.mutex);
  return box.queue.size();
}

std::uint64_t CommWorld::messagesSent() const noexcept {
  std::lock_guard lock(statsMutex_);
  return messagesSent_;
}

std::uint64_t CommWorld::bytesSent() const noexcept {
  std::lock_guard lock(statsMutex_);
  return bytesSent_;
}

std::uint64_t CommWorld::messagesReceived() const noexcept {
  std::lock_guard lock(statsMutex_);
  return messagesReceived_;
}

std::uint64_t CommWorld::bytesReceived() const noexcept {
  std::lock_guard lock(statsMutex_);
  return bytesReceived_;
}

}  // namespace sfopt::mw
