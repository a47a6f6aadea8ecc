#include "runtime/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "net/buffer.h"
#include "net/connection.h"
#include "net/protocol.h"
#include "util/log.h"

namespace aalo::runtime {

namespace {

void writeAllBlocking(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE for the retry path to handle,
    // not a SIGPIPE that kills the application.
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
      continue;
    }
    throw std::system_error(errno, std::generic_category(), "write");
  }
}

void sendFrameBlocking(int fd, const net::Message& message) {
  net::Buffer payload;
  net::encodeMessage(message, payload);
  net::Buffer frame;
  frame.putU32(static_cast<std::uint32_t>(payload.readableBytes()));
  frame.append(payload.readable());
  writeAllBlocking(fd, frame.peek(), frame.readableBytes());
}

/// One reply frame. A length over net::kMaxFrameBytes is a corrupt stream:
/// counted in `malformed` and thrown at once, before anything is buffered.
net::Message readFrameBlocking(int fd, int timeout_ms, obs::Counter& malformed) {
  net::Buffer in;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  auto needBytes = [&](std::size_t n) {
    while (in.readableBytes() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("AaloClient: RPC timeout");
      }
      std::uint8_t* area = in.writableArea(4096);
      const ssize_t got = ::read(fd, area, 4096);
      if (got > 0) {
        in.commitWrite(static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0) throw std::runtime_error("AaloClient: coordinator closed");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLIN, 0};
        ::poll(&pfd, 1, 50);
        continue;
      }
      throw std::system_error(errno, std::generic_category(), "read");
    }
  };
  needBytes(4);
  const std::uint32_t len = in.getU32();
  if (len > net::kMaxFrameBytes) {
    malformed.fetch_add(1);
    throw std::runtime_error("AaloClient: reply frame over the size limit");
  }
  needBytes(len);
  net::Buffer payload;
  payload.append(in.peek(), len);
  in.consume(len);
  return net::decodeMessage(payload);
}

}  // namespace

AaloClient::AaloClient(std::uint16_t coordinator_port)
    : AaloClient(ClientConfig{.coordinator_port = coordinator_port}) {}

AaloClient::AaloClient(ClientConfig config) : config_(std::move(config)) {
  ensureConnected();
}

void AaloClient::ensureConnected() {
  if (fd_.valid()) return;
  fd_ = net::connectTcp(config_.coordinator_port, /*non_blocking=*/true);
  if (next_request_ > 1) {
    // Not the initial dial: the control connection died and came back.
    stats_.rpc_reconnects.fetch_add(1, std::memory_order_relaxed);
  }
}

net::Message AaloClient::call(const net::Message& request, bool expect_reply) {
  const int attempts = std::max(config_.max_rpc_attempts, 1);
  util::Seconds backoff = config_.retry_backoff;
  for (int attempt = 0;; ++attempt) {
    try {
      ensureConnected();
      sendFrameBlocking(fd_.get(), request);
      if (!expect_reply) return {};
      return readFrameBlocking(fd_.get(), config_.rpc_timeout_ms,
                               stats_.malformed_frames);
    } catch (const std::exception& e) {
      // Broken pipe, reset, timeout, or refused redial: tear down and
      // retry over a fresh connection — a restarting coordinator should
      // be invisible to the application (§3.2).
      fd_.reset();
      if (attempt + 1 >= attempts) throw;
      stats_.rpc_retries.fetch_add(1, std::memory_order_relaxed);
      AALO_LOG_WARN << "AaloClient: RPC attempt " << attempt + 1 << " failed ("
                    << e.what() << "); retrying";
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2, config_.retry_max_backoff);
    }
  }
}

coflow::CoflowId AaloClient::registerCoflow(
    std::span<const coflow::CoflowId> parents) {
  net::Message request;
  request.type = net::MessageType::kRegisterCoflow;
  request.request_id = next_request_++;
  request.parents.assign(parents.begin(), parents.end());
  const net::Message reply = call(request, /*expect_reply=*/true);
  if (reply.type != net::MessageType::kRegisterReply ||
      reply.request_id != request.request_id) {
    throw std::runtime_error("AaloClient: unexpected register reply");
  }
  return reply.coflow;
}

void AaloClient::unregisterCoflow(coflow::CoflowId id) {
  net::Message request;
  request.type = net::MessageType::kUnregisterCoflow;
  request.coflow = id;
  next_request_++;  // Not echoed, but keeps reconnect accounting honest.
  call(request, /*expect_reply=*/false);
}

ThrottledWriter::ThrottledWriter(int fd, coflow::CoflowId id, Daemon& daemon)
    : fd_(fd), id_(id), daemon_(daemon) {
  daemon_.writerActive(id_, true);
}

ThrottledWriter::~ThrottledWriter() { daemon_.writerActive(id_, false); }

void ThrottledWriter::writeAll(const void* data, std::size_t len) {
  writeAll(std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(data), len));
}

void ThrottledWriter::writeAll(std::span<const std::uint8_t> data) {
  // Token-bucket pacing in chunks: before each chunk, ask the daemon for
  // the coflow's current rate and sleep just long enough to stay at it.
  constexpr std::size_t kChunk = 64 * 1024;
  std::size_t offset = 0;
  auto window_start = std::chrono::steady_clock::now();
  util::Bytes window_bytes = 0;
  while (offset < data.size()) {
    const util::Rate rate = daemon_.rateFor(id_);
    if (rate <= 0) {
      // No share right now (queue head is someone else): briefly yield,
      // then re-check — the schedule changes every Δ.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      window_start = std::chrono::steady_clock::now();
      window_bytes = 0;
      continue;
    }
    const std::size_t chunk = std::min(kChunk, data.size() - offset);
    if (std::isfinite(rate)) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        window_start)
              .count();
      const double ahead = (window_bytes + static_cast<double>(chunk)) / rate - elapsed;
      if (ahead > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
      }
      // Restart the pacing window occasionally so rate changes take
      // effect quickly.
      if (elapsed > 0.1) {
        window_start = std::chrono::steady_clock::now();
        window_bytes = 0;
      }
    }
    writeAllBlocking(fd_, data.data() + offset, chunk);
    daemon_.reportBytes(id_, static_cast<util::Bytes>(chunk));
    bytes_written_ += static_cast<util::Bytes>(chunk);
    window_bytes += static_cast<double>(chunk);
    offset += chunk;
  }
}

}  // namespace aalo::runtime
