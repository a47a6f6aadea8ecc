// A daemon reduced to its wire behaviour, for the coordinator suites: it
// says Hello on connect (or, built without an id, only when told to),
// sends raw frames and keeps every frame the coordinator sends it,
// decoded. It runs on the test thread's loop, which the test pumps.
#pragma once

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <memory>
#include <span>
#include <system_error>
#include <utility>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace aalo::testing {

class RawDaemon {
 public:
  /// Connects to the coordinator at `port` and writes its Hello, followed
  /// in the same write by `behind_hello` (frames the coordinator then
  /// reads together with the Hello).
  RawDaemon(net::EventLoop& loop, std::uint16_t port, std::uint64_t id,
            std::span<const net::Message> behind_hello = {})
      : id_(id) {
    net::Fd fd = net::connectTcp(port);
    net::Message hello;
    hello.type = net::MessageType::kHello;
    hello.daemon_id = id_;
    net::Buffer wire;
    appendFrame(wire, hello);
    for (const net::Message& m : behind_hello) appendFrame(wire, m);
    writeAll(fd.get(), wire);
    open(loop, std::move(fd));
  }

  /// Connects to the coordinator at `port` without a Hello: the
  /// connection owns no daemon id until hello().
  RawDaemon(net::EventLoop& loop, std::uint16_t port) : id_(0) {
    open(loop, net::connectTcp(port));
  }

  /// Sends one frame of `type` from this daemon; it echoes the epoch of
  /// the last frame received, as a daemon's report does.
  void send(net::MessageType type, std::vector<net::CoflowSize> sizes = {}) {
    net::Message m;
    m.type = type;
    m.daemon_id = id_;
    m.epoch = frames.empty() ? 0 : frames.back().epoch;
    m.sizes = std::move(sizes);
    net::Buffer out;
    net::encodeMessage(m, out);
    conn_->sendFrame(out);
  }

  /// Says Hello on this connection (again, unless built without an id),
  /// as daemon `id`.
  void hello(std::uint64_t id) {
    net::Message m;
    m.type = net::MessageType::kHello;
    m.daemon_id = id;
    net::Buffer out;
    net::encodeMessage(m, out);
    conn_->sendFrame(out);
  }

  /// Closes the socket (a FIN: the coordinator sees it only by reading).
  void disconnect() { conn_.reset(); }

  /// The full snapshots (kScheduleUpdate) received so far.
  std::vector<const net::Message*> snapshots() const {
    std::vector<const net::Message*> out;
    for (const net::Message& m : frames) {
      if (m.type == net::MessageType::kScheduleUpdate) out.push_back(&m);
    }
    return out;
  }

  std::vector<net::Message> frames;

 private:
  void open(net::EventLoop& loop, net::Fd fd) {
    conn_ = std::make_unique<net::Connection>(
        loop, std::move(fd),
        [this](net::Buffer& p) { frames.push_back(net::decodeMessage(p)); },
        nullptr);
  }

  static void appendFrame(net::Buffer& wire, const net::Message& m) {
    net::Buffer payload;
    net::encodeMessage(m, payload);
    wire.putU32(static_cast<std::uint32_t>(payload.readableBytes()));
    wire.append(payload.readable());
  }

  static void writeAll(int fd, const net::Buffer& wire) {
    std::span<const std::uint8_t> left = wire.readable();
    while (!left.empty()) {
      const ssize_t n = ::send(fd, left.data(), left.size(), MSG_NOSIGNAL);
      if (n > 0) {
        left = left.subspan(static_cast<std::size_t>(n));
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 100);
      } else if (errno != EINTR) {
        throw std::system_error(errno, std::generic_category(), "RawDaemon");
      }
    }
  }

  std::uint64_t id_;
  std::unique_ptr<net::Connection> conn_;
};

}  // namespace aalo::testing
