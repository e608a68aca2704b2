#include "probes.hpp"

#include <utility>

#include "mw/mw_task.hpp"

namespace jobbench {

double TimedObjective::sample(std::span<const double> x, sfopt::noise::SampleKey key) const {
  const auto t0 = std::chrono::steady_clock::now();
  const double v = inner_.sample(x, key);
  const auto t1 = std::chrono::steady_clock::now();
  calls_.fetch_add(1, std::memory_order_relaxed);
  busyNs_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
      std::memory_order_relaxed);
  return v;
}

void TimedTransport::send(sfopt::net::Rank from, sfopt::net::Rank to, int tag,
                          sfopt::mw::MessageBuffer payload, std::uint64_t traceId,
                          std::uint64_t parentSpan) {
  const double t0 = nowSeconds();
  if (tag == sfopt::mw::kTagTask) dispatchedAt_[to].push_back(t0);
  if ((tag == sfopt::mw::kTagResult || tag == sfopt::mw::kTagError) && taskRecvAt_ >= 0.0) {
    taskExec.push_back(t0 - taskRecvAt_);
    taskTrace.push_back(taskRecvTrace_);
    taskRecvAt_ = -1.0;
  }
  ++sendCalls;
  sendBytes += payload.sizeBytes();
  inner_.send(from, to, tag, std::move(payload), traceId, parentSpan);
  sendSeconds += nowSeconds() - t0;
}

void TimedTransport::observe(const sfopt::net::Message& m, double t) {
  ++recvCalls;
  if (m.tag == sfopt::mw::kTagTask) {
    taskRecvAt_ = t;
    taskRecvTrace_ = m.traceId;
  }
  if (m.tag == sfopt::mw::kTagResult || m.tag == sfopt::mw::kTagError) {
    auto& pending = dispatchedAt_[m.source];
    if (!pending.empty()) {
      taskRtt[m.source].push_back(t - pending.front());
      pending.pop_front();
    }
  }
}

sfopt::net::Message TimedTransport::recv(sfopt::net::Rank at, sfopt::net::Rank source,
                                         int tag) {
  const double t0 = nowSeconds();
  sfopt::net::Message m = inner_.recv(at, source, tag);
  const double t1 = nowSeconds();
  recvWaitSeconds += t1 - t0;
  observe(m, t1);
  return m;
}

std::optional<sfopt::net::Message> TimedTransport::recvFor(sfopt::net::Rank at,
                                                           double timeoutSeconds,
                                                           sfopt::net::Rank source, int tag) {
  const double t0 = nowSeconds();
  auto m = inner_.recvFor(at, timeoutSeconds, source, tag);
  const double t1 = nowSeconds();
  recvWaitSeconds += t1 - t0;
  if (m) observe(*m, t1);
  return m;
}

std::optional<sfopt::net::Message> TimedTransport::tryRecv(sfopt::net::Rank at,
                                                           sfopt::net::Rank source, int tag) {
  const double t0 = nowSeconds();
  auto m = inner_.tryRecv(at, source, tag);
  const double t1 = nowSeconds();
  recvWaitSeconds += t1 - t0;
  if (m) observe(*m, t1);
  return m;
}

}  // namespace jobbench
