#include "tests/support/chaos.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>
#include <utility>

#include "net/connection.h"  // kMaxFrameBytes
#include "util/log.h"

namespace aalo::net {

namespace {

std::chrono::nanoseconds toNanos(util::Seconds s) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9));
}

/// Pause between split-write chunks: long enough that the kernel delivers
/// them as separate reads, short enough to keep tests fast.
constexpr auto kSplitFlushPause = std::chrono::microseconds(200);

}  // namespace

ChaosProxy::ChaosProxy(ChaosProxyConfig config)
    : config_(std::move(config)),
      // Independent per-direction streams: decisions in one direction must
      // not perturb the other (their frame interleaving is timing-dependent
      // but each direction's frame order is fixed by TCP).
      rng_c2u_(config_.seed * 2 + 1),
      rng_u2c_(config_.seed * 2 + 2) {}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (running_.exchange(true)) return;
  auto [fd, port] = listenTcp(config_.listen_port);
  listener_ = std::move(fd);
  port_ = port;
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { onAcceptable(); });
  thread_ = std::thread([this] { loop_.run(); });
  AALO_LOG_INFO << "chaos proxy on 127.0.0.1:" << port_ << " -> 127.0.0.1:"
                << config_.upstream_port << " (seed " << config_.seed << ")";
}

void ChaosProxy::stop() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  // Loop thread is gone; tear sessions down inline.
  for (auto& [id, session] : sessions_) {
    if (session->closed) continue;
    session->closed = true;
    if (session->client.fd.valid()) loop_.remove(session->client.fd.get());
    if (session->upstream.fd.valid()) loop_.remove(session->upstream.fd.get());
  }
  sessions_.clear();
  if (listener_.valid()) loop_.remove(listener_.get());
  listener_.reset();
}

void ChaosProxy::killLink() {
  stats_.link_kills.fetch_add(1, std::memory_order_relaxed);
  loop_.post([this] {
    std::vector<std::shared_ptr<Session>> doomed;
    doomed.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) doomed.push_back(session);
    for (const auto& session : doomed) closeSession(session);
  });
}

void ChaosProxy::setLinkUp(bool up) {
  loop_.post([this, up] {
    link_up_ = up;
    if (!up) {
      std::vector<std::shared_ptr<Session>> doomed;
      doomed.reserve(sessions_.size());
      for (const auto& [id, session] : sessions_) doomed.push_back(session);
      for (const auto& session : doomed) closeSession(session);
    }
  });
}

void ChaosProxy::setPolicies(ChaosPolicy client_to_upstream,
                             ChaosPolicy upstream_to_client) {
  loop_.post([this, c2u = std::move(client_to_upstream),
              u2c = std::move(upstream_to_client)] {
    config_.client_to_upstream = c2u;
    config_.upstream_to_client = u2c;
  });
}

std::vector<std::string> ChaosProxy::trace() const {
  std::lock_guard lock(trace_mutex_);
  return trace_;
}

void ChaosProxy::record(bool client_to_upstream, std::uint64_t frame_index,
                        const char* action) {
  if (!config_.record_trace) return;
  std::lock_guard lock(trace_mutex_);
  trace_.push_back(std::string(client_to_upstream ? "c2u#" : "u2c#") +
                   std::to_string(frame_index) + " " + action);
}

void ChaosProxy::onAcceptable() {
  for (;;) {
    Fd client_fd = acceptTcp(listener_.get());
    if (!client_fd.valid()) break;
    if (!link_up_) {
      stats_.sessions_refused.fetch_add(1, std::memory_order_relaxed);
      continue;  // Fd destructor closes: the peer sees an immediate hangup.
    }
    Fd upstream_fd;
    try {
      upstream_fd = connectTcp(config_.upstream_port);
    } catch (const std::system_error&) {
      stats_.sessions_refused.fetch_add(1, std::memory_order_relaxed);
      continue;  // Upstream down: refuse by closing the accepted fd.
    }
    auto session = std::make_shared<Session>();
    session->id = next_session_id_++;
    session->client.fd = std::move(client_fd);
    session->upstream.fd = std::move(upstream_fd);
    sessions_.emplace(session->id, session);
    stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    addLeg(session, /*client_side=*/true);
    addLeg(session, /*client_side=*/false);
  }
}

void ChaosProxy::addLeg(const std::shared_ptr<Session>& session, bool client_side) {
  Leg& leg = client_side ? session->client : session->upstream;
  std::weak_ptr<Session> weak = session;
  loop_.add(leg.fd.get(), EPOLLIN, [this, weak, client_side](std::uint32_t events) {
    if (auto locked = weak.lock()) onLegEvents(locked, client_side, events);
  });
}

void ChaosProxy::onLegEvents(const std::shared_ptr<Session>& session,
                             bool client_side, std::uint32_t events) {
  if (session->closed) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    closeSession(session);
    return;
  }
  Leg& leg = client_side ? session->client : session->upstream;
  if (events & EPOLLIN) {
    for (;;) {
      std::uint8_t* area = leg.incoming.writableArea(64 * 1024);
      const ssize_t n = ::read(leg.fd.get(), area, 64 * 1024);
      if (n > 0) {
        leg.incoming.commitWrite(static_cast<std::size_t>(n));
        if (n < 64 * 1024) break;
        continue;
      }
      if (n == 0) {
        closeSession(session);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      closeSession(session);
      return;
    }
    // Bytes read on the client leg travel client->upstream and vice versa.
    relayFrames(session, /*client_to_upstream=*/client_side);
    if (session->closed) return;
  }
  if (events & EPOLLOUT) {
    leg.want_write = false;
    loop_.modify(leg.fd.get(), EPOLLIN);
    flushLeg(session, client_side);
  }
}

void ChaosProxy::relayFrames(const std::shared_ptr<Session>& session,
                             bool client_to_upstream) {
  Leg& src = client_to_upstream ? session->client : session->upstream;
  const ChaosPolicy& policy =
      client_to_upstream ? config_.client_to_upstream : config_.upstream_to_client;
  util::Rng& rng = client_to_upstream ? rng_c2u_ : rng_u2c_;
  std::uint64_t& frame_counter = client_to_upstream ? frames_c2u_ : frames_u2c_;
  auto& held = client_to_upstream ? session->held_c2u : session->held_u2c;

  while (!session->closed && src.incoming.readableBytes() >= 4) {
    const std::uint8_t* p = src.incoming.peek();
    const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
    if (len > kMaxFrameBytes) {
      closeSession(session);  // Upstream/peer stream itself is corrupt.
      return;
    }
    if (src.incoming.readableBytes() < 4 + static_cast<std::size_t>(len)) break;
    src.incoming.consume(4);
    std::vector<std::uint8_t> payload(src.incoming.peek(),
                                      src.incoming.peek() + len);
    src.incoming.consume(len);
    const std::uint64_t index = frame_counter++;

    // Policy decisions, in a fixed order so the Rng stream alone
    // determines the outcome for frame `index`.
    if (policy.blackhole) {
      stats_.frames_blackholed.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "blackhole");
      continue;
    }
    if (rng.chance(policy.drop)) {
      stats_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "drop");
      continue;
    }
    if (rng.chance(policy.kill_mid_frame)) {
      // Sender killed mid-write: forward a strict prefix of the framed
      // bytes — the cut may land inside the 4-byte header or the payload
      // — then sever the session so no continuation ever arrives.
      stats_.frames_torn.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "tear");
      std::vector<std::uint8_t> torn;
      torn.reserve(4 + payload.size());
      const std::uint32_t full_len = static_cast<std::uint32_t>(payload.size());
      torn.push_back(static_cast<std::uint8_t>(full_len & 0xFF));
      torn.push_back(static_cast<std::uint8_t>((full_len >> 8) & 0xFF));
      torn.push_back(static_cast<std::uint8_t>((full_len >> 16) & 0xFF));
      torn.push_back(static_cast<std::uint8_t>((full_len >> 24) & 0xFF));
      torn.insert(torn.end(), payload.begin(), payload.end());
      torn.resize(static_cast<std::size_t>(
          rng.uniformInt(1, static_cast<std::int64_t>(torn.size()) - 1)));
      Leg& dst = client_to_upstream ? session->upstream : session->client;
      dst.outgoing.append(torn.data(), torn.size());
      flushLeg(session, /*client_side=*/!client_to_upstream);
      closeSession(session);
      return;
    }
    if (rng.chance(policy.truncate) && payload.size() > 1) {
      payload.resize(static_cast<std::size_t>(
          rng.uniformInt(1, static_cast<std::int64_t>(payload.size()) - 1)));
      stats_.frames_truncated.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "truncate");
    }
    if (rng.chance(policy.corrupt) && !payload.empty()) {
      const auto byte = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(payload.size()) - 1));
      const auto bit = static_cast<unsigned>(rng.uniformInt(0, 7));
      payload[byte] ^= static_cast<std::uint8_t>(1u << bit);
      stats_.frames_corrupted.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "corrupt");
    }
    const int copies = rng.chance(policy.duplicate) ? 2 : 1;
    if (copies == 2) {
      stats_.frames_duplicated.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "duplicate");
    }

    // Re-frame the (possibly mangled) payload. The length prefix always
    // matches the forwarded payload so corruption stays *inside* frames;
    // stream desynchronization is exercised separately via truncation at
    // the receiver's decode layer and split writes below.
    std::vector<std::uint8_t> blob;
    blob.reserve(4 + payload.size());
    const std::uint32_t out_len = static_cast<std::uint32_t>(payload.size());
    blob.push_back(static_cast<std::uint8_t>(out_len & 0xFF));
    blob.push_back(static_cast<std::uint8_t>((out_len >> 8) & 0xFF));
    blob.push_back(static_cast<std::uint8_t>((out_len >> 16) & 0xFF));
    blob.push_back(static_cast<std::uint8_t>((out_len >> 24) & 0xFF));
    blob.insert(blob.end(), payload.begin(), payload.end());

    if (rng.chance(policy.delay)) {
      stats_.frames_delayed.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "delay");
      const double wait = rng.uniform(policy.delay_min, policy.delay_max);
      std::weak_ptr<Session> weak = session;
      loop_.callAfter(toNanos(wait),
                      [this, weak, client_to_upstream, blob = std::move(blob),
                       copies] {
                        if (auto locked = weak.lock()) {
                          if (!locked->closed) {
                            deliver(locked, client_to_upstream, blob, copies);
                          }
                        }
                      });
      continue;
    }
    if (rng.chance(policy.reorder) && !held.has_value()) {
      stats_.frames_reordered.fetch_add(1, std::memory_order_relaxed);
      record(client_to_upstream, index, "hold");
      held = HeldFrame{std::move(blob), copies};
      continue;
    }
    deliver(session, client_to_upstream, blob, copies);
    if (held.has_value()) {
      HeldFrame released = std::move(*held);
      held.reset();
      deliver(session, client_to_upstream, released.blob, released.copies);
    }
  }
}

void ChaosProxy::deliver(const std::shared_ptr<Session>& session,
                         bool client_to_upstream,
                         const std::vector<std::uint8_t>& blob, int copies) {
  if (session->closed) return;
  // Frames travelling client->upstream are written on the upstream leg.
  Leg& dst = client_to_upstream ? session->upstream : session->client;
  for (int i = 0; i < copies; ++i) dst.outgoing.append(blob.data(), blob.size());
  stats_.frames_relayed.fetch_add(static_cast<std::uint64_t>(copies),
                                  std::memory_order_relaxed);
  flushLeg(session, /*client_side=*/!client_to_upstream);
}

void ChaosProxy::flushLeg(const std::shared_ptr<Session>& session,
                          bool client_side) {
  Leg& leg = client_side ? session->client : session->upstream;
  const ChaosPolicy& policy =
      client_side ? config_.upstream_to_client : config_.client_to_upstream;
  while (!leg.outgoing.empty()) {
    std::size_t want = leg.outgoing.readableBytes();
    if (policy.max_write_bytes > 0) want = std::min(want, policy.max_write_bytes);
    const ssize_t n =
        ::send(leg.fd.get(), leg.outgoing.peek(), want, MSG_NOSIGNAL);
    if (n > 0) {
      leg.outgoing.consume(static_cast<std::size_t>(n));
      if (policy.max_write_bytes > 0 && !leg.outgoing.empty()) {
        // Split mode: pause so the remainder lands in a separate segment,
        // forcing the receiver through its partial-frame path.
        if (!leg.flush_timer_armed) {
          leg.flush_timer_armed = true;
          std::weak_ptr<Session> weak = session;
          loop_.callAfter(kSplitFlushPause, [this, weak, client_side] {
            if (auto locked = weak.lock()) {
              if (locked->closed) return;
              Leg& l = client_side ? locked->client : locked->upstream;
              l.flush_timer_armed = false;
              flushLeg(locked, client_side);
            }
          });
        }
        return;
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!leg.want_write) {
        leg.want_write = true;
        loop_.modify(leg.fd.get(), EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (errno == EINTR) continue;
    closeSession(session);
    return;
  }
}

void ChaosProxy::closeSession(const std::shared_ptr<Session>& session) {
  if (session->closed) return;
  session->closed = true;
  if (session->client.fd.valid()) loop_.remove(session->client.fd.get());
  if (session->upstream.fd.valid()) loop_.remove(session->upstream.fd.get());
  session->client.fd.reset();
  session->upstream.fd.reset();
  sessions_.erase(session->id);
}

}  // namespace aalo::net
