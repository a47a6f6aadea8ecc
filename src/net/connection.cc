#include "net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>

namespace aalo::net {

namespace {

/// Segments gathered into one writev call. Outgoing queues are almost
/// always [staged header][shared payload] pairs, so a small batch covers
/// the common case without approaching IOV_MAX.
constexpr std::size_t kMaxIov = 16;

}  // namespace

Connection::Connection(EventLoop& loop, Fd fd, FrameHandler on_frame,
                       CloseHandler on_close, ConnMetrics* metrics)
    : loop_(loop),
      fd_(std::move(fd)),
      on_frame_(std::move(on_frame)),
      on_close_(std::move(on_close)),
      metrics_(metrics != nullptr ? metrics : &ConnMetrics::dummy()),
      interest_(EPOLLIN) {
  loop_.add(fd_.get(), interest_,
            [this](std::uint32_t events) { onEvents(events); });
}

Connection::~Connection() {
  if (!closed_ && fd_.valid()) loop_.remove(fd_.get());
}

void Connection::sendFrame(const Buffer& payload) {
  sendFrame(payload.readable());
}

Buffer& Connection::stagingTail() {
  if (outgoing_.empty() || outgoing_.back().shared) outgoing_.emplace_back();
  return outgoing_.back().owned;
}

bool Connection::overflowsSendQueue(std::size_t frame_bytes) {
  if (send_queue_limit_ == 0 ||
      pending_bytes_ + frame_bytes <= send_queue_limit_) {
    return false;
  }
  // The peer is not draining and the cap is exhausted: closing is the only
  // bounded-memory option left (the caller's coalescing policy should have
  // stopped sending long before this trips).
  metrics_->overflow_closes.fetch_add(1);
  close();
  return true;
}

void Connection::sendFrame(std::span<const std::uint8_t> payload) {
  if (closed_) return;
  if (overflowsSendQueue(4 + payload.size())) return;
  Buffer& tail = stagingTail();
  tail.putU32(static_cast<std::uint32_t>(payload.size()));
  tail.append(payload);
  pending_bytes_ += 4 + payload.size();
  metrics_->frames_out.fetch_add(1);
  metrics_->bytes_out.fetch_add(4 + payload.size());
  flush();
}

void Connection::sendFrame(std::shared_ptr<const Buffer> payload) {
  if (closed_ || !payload) return;
  const std::size_t len = payload->readableBytes();
  if (overflowsSendQueue(4 + len)) return;
  stagingTail().putU32(static_cast<std::uint32_t>(len));
  pending_bytes_ += 4 + len;
  metrics_->frames_out.fetch_add(1);
  metrics_->bytes_out.fetch_add(4 + len);
  if (len > 0) {
    Segment segment;
    segment.shared = std::move(payload);
    outgoing_.push_back(std::move(segment));
  }
  flush();
}

void Connection::onEvents(std::uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    close();
    return;
  }
  if (events & EPOLLIN) {
    if (on_ready_) {
      // Coalesced: tell the owner once, and stop watching until it reads
      // (an owner that read at once in the handler keeps the watch).
      read_deferred_ = true;
      on_ready_();
      updateInterest();
    } else {
      handleReadable();
    }
  }
  if (!closed_ && (events & EPOLLOUT)) flush();
}

void Connection::coalesceReads(ReadyHandler on_ready) {
  on_ready_ = std::move(on_ready);
}

void Connection::readNow() {
  if (!read_deferred_ || closed_) return;
  read_deferred_ = false;
  handleReadable();
  updateInterest();
}

void Connection::handleReadable() {
  for (;;) {
    std::uint8_t* area = incoming_.writableArea(64 * 1024);
    const ssize_t n = ::read(fd_.get(), area, 64 * 1024);
    if (n > 0) {
      incoming_.commitWrite(static_cast<std::size_t>(n));
      if (n < 64 * 1024) break;  // Drained.
      continue;
    }
    if (n == 0) {
      close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close();
    return;
  }

  if (!deliverFrames()) close();  // Corrupt stream.
}

bool Connection::deliverFrames() {
  const bool coalesced = static_cast<bool>(on_ready_);
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  bool intact = true;
  while (!closed_ && incoming_.readableBytes() >= 4) {
    const std::uint8_t* p = incoming_.peek();
    const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
    if (len > kMaxFrameBytes) {
      intact = false;
      break;
    }
    if (incoming_.readableBytes() < 4 + static_cast<std::size_t>(len)) break;
    payload_.clear();
    payload_.append(incoming_.peek() + 4, len);
    incoming_.consume(4 + static_cast<std::size_t>(len));
    ++frames;
    bytes += 4 + static_cast<std::size_t>(len);
    on_frame_(payload_);
    if (!coalesced && on_ready_) {
      // The handler switched to coalesced reads: the rest waits for the
      // owner's readNow(), and so does the input watch.
      read_deferred_ = true;
      updateInterest();
      break;
    }
  }
  if (frames > 0) {
    metrics_->frames_in.fetch_add(frames);
    metrics_->bytes_in.fetch_add(bytes);
  }
  return intact;
}

void Connection::flush() {
  while (pending_bytes_ > 0) {
    std::array<iovec, kMaxIov> iov;
    std::size_t iov_count = 0;
    for (const Segment& segment : outgoing_) {
      if (iov_count == kMaxIov) break;
      const auto bytes = segment.bytes();
      if (bytes.empty()) continue;
      iov[iov_count].iov_base = const_cast<std::uint8_t*>(bytes.data());
      iov[iov_count].iov_len = bytes.size();
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = iov_count;
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE
    // (handled below as a close), never as a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      std::size_t left = static_cast<std::size_t>(n);
      pending_bytes_ -= left;
      while (left > 0) {
        Segment& front = outgoing_.front();
        const std::size_t take = std::min(left, front.bytes().size());
        front.consume(take);
        left -= take;
        if (front.drained()) outgoing_.pop_front();
      }
      while (!outgoing_.empty() && outgoing_.front().drained()) {
        outgoing_.pop_front();
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close();
    return;
  }
  if (pending_bytes_ == 0) outgoing_.clear();
  updateInterest();
}

void Connection::updateInterest() {
  const std::uint32_t interest = (read_deferred_ ? 0u : EPOLLIN) |
                                 (pending_bytes_ > 0 ? EPOLLOUT : 0u);
  if (interest == interest_ || closed_) return;
  interest_ = interest;
  loop_.modify(fd_.get(), interest);
}

void Connection::close() {
  if (closed_) return;
  closed_ = true;
  loop_.remove(fd_.get());
  fd_.reset();
  // Release shared broadcast buffers promptly: a dead peer must not pin
  // the coordinator's encode scratch.
  outgoing_.clear();
  pending_bytes_ = 0;
  if (on_close_) on_close_();
}

}  // namespace aalo::net
