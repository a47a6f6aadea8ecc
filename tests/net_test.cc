#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "net/buffer.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace aalo::net {
namespace {

TEST(Buffer, PrimitiveRoundTrip) {
  Buffer b;
  b.putU8(0xAB);
  b.putU32(0xDEADBEEF);
  b.putU64(0x0123456789ABCDEFull);
  b.putI64(-42);
  b.putDouble(3.14159);
  b.putString("hello");
  EXPECT_EQ(b.getU8(), 0xAB);
  EXPECT_EQ(b.getU32(), 0xDEADBEEFu);
  EXPECT_EQ(b.getU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(b.getI64(), -42);
  EXPECT_DOUBLE_EQ(b.getDouble(), 3.14159);
  EXPECT_EQ(b.getString(), "hello");
  EXPECT_TRUE(b.empty());
}

TEST(Buffer, UnderrunThrows) {
  Buffer b;
  b.putU8(1);
  EXPECT_THROW(b.getU32(), std::out_of_range);
  Buffer c;
  c.putU32(100);  // String length 100 with no payload.
  EXPECT_THROW(c.getString(), std::out_of_range);
}

TEST(Buffer, ConsumeOverrunThrows) {
  Buffer b;
  b.putU32(7);
  EXPECT_THROW(b.consume(5), std::out_of_range);
}

TEST(Buffer, GrowsAndCompacts) {
  Buffer b;
  std::vector<std::uint8_t> blob(100000, 0x5A);
  for (int i = 0; i < 5; ++i) {
    b.append(blob.data(), blob.size());
    b.consume(blob.size() / 2);
  }
  // Still coherent after interleaved appends/consumes.
  const auto view = b.readable();
  for (const auto byte : view) EXPECT_EQ(byte, 0x5A);
}

TEST(Protocol, AllMessageTypesRoundTrip) {
  std::vector<Message> messages;
  {
    Message m;
    m.type = MessageType::kHello;
    m.daemon_id = 77;
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kRegisterCoflow;
    m.request_id = 5;
    m.parents = {{42, 1}, {42, 2}};
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kRegisterReply;
    m.request_id = 5;
    m.coflow = {42, 3};
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kUnregisterCoflow;
    m.coflow = {7, 0};
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kSizeReport;
    m.daemon_id = 3;
    m.sizes = {{{1, 0}, 1e6}, {{2, 0}, 2.5e9}};
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kScheduleUpdate;
    m.epoch = 99;
    m.fence = 2;
    m.schedule = {{{1, 0}, 1e6, 0}, {{2, 0}, 2.5e9, 3}};
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kScheduleDelta;
    m.epoch = 100;
    m.base_epoch = 99;
    m.fence = 3;
    m.schedule = {{{3, 1}, 5e7, 2, false}};
    m.removals = {{1, 0}, {2, 0}};
    m.schedule_digest = 0xfedcba9876543210ULL;
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kFollowerSubscribe;
    m.daemon_id = 9001;
    m.epoch = 17;
    m.fence = 1;
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kScheduleDelta;  // Heartbeat: empty delta.
    m.epoch = 101;
    m.base_epoch = 100;
    messages.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kSnapshotRequest;
    m.daemon_id = 4;
    m.epoch = 83;
    messages.push_back(m);
  }

  for (const Message& m : messages) {
    Buffer buffer;
    encodeMessage(m, buffer);
    const Message decoded = decodeMessage(buffer);
    EXPECT_EQ(decoded.type, m.type);
    EXPECT_EQ(decoded.daemon_id, m.daemon_id);
    EXPECT_EQ(decoded.request_id, m.request_id);
    EXPECT_EQ(decoded.epoch, m.epoch);
    EXPECT_EQ(decoded.base_epoch, m.base_epoch);
    EXPECT_EQ(decoded.fence, m.fence);
    EXPECT_EQ(decoded.coflow, m.coflow);
    EXPECT_EQ(decoded.parents, m.parents);
    EXPECT_EQ(decoded.sizes, m.sizes);
    EXPECT_EQ(decoded.schedule, m.schedule);
    EXPECT_EQ(decoded.removals, m.removals);
    EXPECT_EQ(decoded.schedule_digest, m.schedule_digest);
  }
}

// Golden bytes: the kScheduleDelta layout is a cross-version compatibility
// contract (mixed coordinator/daemon versions during a rolling restart),
// so an accidental field reorder must fail loudly, not just round-trip.
TEST(Protocol, ScheduleDeltaGoldenWireFormat) {
  Message m;
  m.type = MessageType::kScheduleDelta;
  m.epoch = 3;
  m.base_epoch = 2;
  m.fence = 5;
  m.schedule = {{{1, 2}, 1.5, 4, true}};
  m.removals = {{7, 0}};
  m.schedule_digest = 0x0807060504030201ULL;
  Buffer buffer;
  encodeMessage(m, buffer);

  const std::uint8_t expected[] = {
      0x07,                                            // type
      0x03, 0, 0, 0, 0, 0, 0, 0,                       // epoch = 3
      0x02, 0, 0, 0, 0, 0, 0, 0,                       // base_epoch = 2
      0x05, 0, 0, 0, 0, 0, 0, 0,                       // fence = 5
      0x01, 0, 0, 0,                                   // 1 entry
      0x01, 0, 0, 0, 0, 0, 0, 0,                       // id.external = 1
      0x02, 0, 0, 0,                                   // id.internal = 2
      0, 0, 0, 0, 0, 0, 0xF8, 0x3F,                    // bytes = 1.5
      0x04, 0, 0, 0,                                   // queue = 4
      0x01,                                            // on
      0x01, 0, 0, 0,                                   // 1 removal
      0x07, 0, 0, 0, 0, 0, 0, 0,                       // removal.external = 7
      0x00, 0, 0, 0,                                   // removal.internal = 0
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // schedule_digest
  };
  const auto view = buffer.readable();
  ASSERT_EQ(view.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(view[i], expected[i]) << "byte " << i;
  }

  const Message decoded = decodeMessage(buffer);
  EXPECT_EQ(decoded.epoch, 3u);
  EXPECT_EQ(decoded.base_epoch, 2u);
  EXPECT_EQ(decoded.fence, 5u);
  EXPECT_EQ(decoded.schedule, m.schedule);
  EXPECT_EQ(decoded.removals, m.removals);
  EXPECT_EQ(decoded.schedule_digest, m.schedule_digest);
}

TEST(Protocol, RejectsTruncatedScheduleDelta) {
  Message m;
  m.type = MessageType::kScheduleDelta;
  m.epoch = 10;
  m.base_epoch = 9;
  m.schedule = {{{1, 0}, 2e6, 1, true}, {{2, 0}, 3e9, 5, false}};
  m.removals = {{3, 0}};
  Buffer full;
  encodeMessage(m, full);
  const auto bytes = full.readable();
  // Every proper prefix must be rejected (truncation => underrun), never
  // silently decoded as a shorter delta.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Buffer truncated;
    truncated.append(bytes.data(), len);
    EXPECT_THROW(decodeMessage(truncated), std::exception) << "length " << len;
  }
  // And one extra byte is trailing garbage.
  Buffer extended;
  extended.append(bytes.data(), bytes.size());
  extended.putU8(0);
  EXPECT_THROW(decodeMessage(extended), std::runtime_error);
}

/// `m` encoded, with the 4-byte queue and 1-byte ON fields of its first
/// schedule entry overwritten. `header` is the bytes before the entry.
std::vector<std::uint8_t> withFirstEntry(const Message& m, std::size_t header,
                                         std::uint32_t queue, std::uint8_t on) {
  Buffer buffer;
  encodeMessage(m, buffer);
  std::vector<std::uint8_t> bytes(buffer.readable().begin(),
                                  buffer.readable().end());
  const std::size_t field = header + 12 + 8;  // After the id and the bytes.
  for (int i = 0; i < 4; ++i) {
    bytes[field + i] = static_cast<std::uint8_t>(queue >> (8 * i));
  }
  bytes[field + 4] = on;
  return bytes;
}

/// kScheduleUpdate and kScheduleDelta frames holding one entry, with the
/// offset of that entry in the encoded frame.
std::vector<std::pair<Message, std::size_t>> oneEntryFrames() {
  Message update;
  update.type = MessageType::kScheduleUpdate;
  update.epoch = 8;
  update.fence = 1;
  update.schedule = {{{5, 1}, 3e6, 2, true}};
  Message delta = update;
  delta.type = MessageType::kScheduleDelta;
  delta.base_epoch = 7;
  delta.removals = {{4, 0}};
  return {{update, 1 + 8 + 8 + 4}, {delta, 1 + 8 + 8 + 8 + 4}};
}

Message decodeBytes(const std::vector<std::uint8_t>& bytes) {
  Buffer in;
  in.append(bytes.data(), bytes.size());
  return decodeMessage(in);
}

// Decoding an ON byte other than 0/1 as `on = true` would re-encode to
// different bytes, so the frame is malformed.
TEST(Protocol, RejectsOnFlagOtherThanZeroOrOne) {
  for (const auto& [m, header] : oneEntryFrames()) {
    EXPECT_FALSE(decodeBytes(withFirstEntry(m, header, 2, 0)).schedule[0].on);
    EXPECT_TRUE(decodeBytes(withFirstEntry(m, header, 2, 1)).schedule[0].on);
    for (const std::uint8_t on : {2, 0x80, 0xFF}) {
      EXPECT_THROW(decodeBytes(withFirstEntry(m, header, 2, on)),
                   std::runtime_error)
          << "type " << static_cast<int>(m.type) << " on " << int{on};
    }
  }
}

// Queues are int32 on the wire's reader side: 2^31 and above would decode
// negative.
TEST(Protocol, RejectsQueueThatDecodesNegative) {
  for (const auto& [m, header] : oneEntryFrames()) {
    const Message top = decodeBytes(withFirstEntry(m, header, 0x7FFFFFFF, 1));
    EXPECT_EQ(top.schedule[0].queue, 0x7FFFFFFF);
    for (const std::uint32_t queue : {0x80000000u, 0xFFFFFFFFu}) {
      EXPECT_THROW(decodeBytes(withFirstEntry(m, header, queue, 1)),
                   std::runtime_error)
          << "type " << static_cast<int>(m.type) << " queue " << queue;
    }
  }
}

TEST(Protocol, RejectsUnknownTypeAndTrailingBytes) {
  Buffer bad;
  bad.putU8(99);
  EXPECT_THROW(decodeMessage(bad), std::runtime_error);

  Message m;
  m.type = MessageType::kHello;
  m.daemon_id = 1;
  Buffer with_trailing;
  encodeMessage(m, with_trailing);
  with_trailing.putU8(0);
  EXPECT_THROW(decodeMessage(with_trailing), std::runtime_error);
}

TEST(EventLoop, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> fired;
  const auto now = EventLoop::Clock::now();
  loop.callAt(now + std::chrono::milliseconds(20), [&] { fired.push_back(2); });
  loop.callAt(now + std::chrono::milliseconds(5), [&] { fired.push_back(1); });
  const auto deadline = now + std::chrono::milliseconds(200);
  while (fired.size() < 2 && EventLoop::Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  const auto token = loop.callAfter(std::chrono::milliseconds(5),
                                    [&] { fired = true; });
  loop.cancelTimer(token);
  const auto deadline =
      EventLoop::Clock::now() + std::chrono::milliseconds(50);
  while (EventLoop::Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(fired);
}

TEST(EventLoop, PostRunsOnLoopAndWakes) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    loop.post([&] { ran = true; });
  });
  const auto deadline = EventLoop::Clock::now() + std::chrono::seconds(2);
  while (!ran && EventLoop::Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(100));
  }
  poster.join();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, TimerWaitIsPreciseWithoutSpinning) {
  // The wait for a timer must neither end early (the timer is never
  // dispatched before its deadline) nor poll: a whole-ms wait would spin
  // through the last partial millisecond in zero-timeout epoll calls.
  EventLoop loop;
  const auto start = EventLoop::Clock::now();
  EventLoop::Clock::time_point fired_at{};
  loop.callAfter(std::chrono::milliseconds(20),
                 [&] { fired_at = EventLoop::Clock::now(); });
  int calls = 0;
  while (fired_at == EventLoop::Clock::time_point{} &&
         EventLoop::Clock::now() - start < std::chrono::seconds(2)) {
    loop.runOnce(std::chrono::milliseconds(100));
    ++calls;
  }
  ASSERT_NE(fired_at, EventLoop::Clock::time_point{});
  EXPECT_GE(fired_at - start, std::chrono::milliseconds(20));
  EXPECT_LE(calls, 4);
}

TEST(EventLoop, StopBeforeRunIsNotLost) {
  EventLoop loop;
  bool backstop = false;
  loop.callAfter(std::chrono::seconds(2), [&] {
    backstop = true;
    loop.stop();
  });
  loop.stop();
  loop.run();  // Must return at once: the stop came first.
  EXPECT_FALSE(backstop);
}

TEST(Sockets, ListenConnectAccept) {
  auto [listener, port] = listenTcp(0);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(port, 0);
  Fd client = connectTcp(port);
  ASSERT_TRUE(client.valid());
  Fd server;
  for (int i = 0; i < 100 && !server.valid(); ++i) {
    server = acceptTcp(listener.get());
    if (!server.valid()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.valid());
}

class ConnectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto [listener, port] = listenTcp(0);
    listener_ = std::move(listener);
    client_fd_ = connectTcp(port);
    for (int i = 0; i < 100 && !server_fd_.valid(); ++i) {
      server_fd_ = acceptTcp(listener_.get());
      if (!server_fd_.valid()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server_fd_.valid());
  }

  void pump(EventLoop& loop, auto done, int max_ms = 2000) {
    const auto deadline =
        EventLoop::Clock::now() + std::chrono::milliseconds(max_ms);
    while (!done() && EventLoop::Clock::now() < deadline) {
      loop.runOnce(std::chrono::milliseconds(10));
    }
  }

  Fd listener_;
  Fd client_fd_;
  Fd server_fd_;
};

TEST_F(ConnectionFixture, FramesRoundTripBothWays) {
  EventLoop loop;
  std::vector<std::string> server_got;
  std::vector<std::string> client_got;
  Connection server(loop, std::move(server_fd_),
                    [&](Buffer& p) { server_got.push_back(p.getString()); }, {});
  Connection client(loop, std::move(client_fd_),
                    [&](Buffer& p) { client_got.push_back(p.getString()); }, {});

  Buffer hello;
  hello.putString("from-client");
  client.sendFrame(hello);
  Buffer reply;
  reply.putString("from-server");
  server.sendFrame(reply);

  pump(loop, [&] { return !server_got.empty() && !client_got.empty(); });
  ASSERT_EQ(server_got.size(), 1u);
  EXPECT_EQ(server_got[0], "from-client");
  ASSERT_EQ(client_got.size(), 1u);
  EXPECT_EQ(client_got[0], "from-server");
}

TEST_F(ConnectionFixture, ManySmallFramesCoalesce) {
  EventLoop loop;
  int received = 0;
  Connection server(loop, std::move(server_fd_),
                    [&](Buffer& p) {
                      EXPECT_EQ(p.getU32(), static_cast<std::uint32_t>(received));
                      ++received;
                    },
                    {});
  Connection client(loop, std::move(client_fd_), {}, {});
  for (std::uint32_t i = 0; i < 500; ++i) {
    Buffer payload;
    payload.putU32(i);
    client.sendFrame(payload);
  }
  pump(loop, [&] { return received == 500; });
  EXPECT_EQ(received, 500);
}

TEST_F(ConnectionFixture, LargeFrameSurvivesPartialWrites) {
  EventLoop loop;
  std::size_t got = 0;
  Connection server(loop, std::move(server_fd_),
                    [&](Buffer& p) { got = p.readableBytes(); }, {});
  Connection client(loop, std::move(client_fd_), {}, {});
  std::vector<std::uint8_t> blob(8 * 1024 * 1024, 0x42);
  client.sendFrame(std::span<const std::uint8_t>(blob));
  pump(loop, [&] { return got == blob.size(); }, 5000);
  EXPECT_EQ(got, blob.size());
}

TEST_F(ConnectionFixture, SharedFrameDeliversAndReleasesBuffer) {
  EventLoop loop;
  std::vector<std::string> got;
  Connection server(loop, std::move(server_fd_),
                    [&](Buffer& p) { got.push_back(p.getString()); }, {});
  Connection client(loop, std::move(client_fd_), {}, {});

  auto shared = std::make_shared<Buffer>();
  shared->putString("broadcast-payload");
  client.sendFrame(std::shared_ptr<const Buffer>(shared));
  pump(loop, [&] { return !got.empty(); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "broadcast-payload");
  // Fully flushed: the connection must have dropped its reference so the
  // sender can reuse the buffer as scratch (use_count()==1 check).
  pump(loop, [&] { return shared.use_count() == 1; });
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(client.pendingBytes(), 0u);
}

TEST_F(ConnectionFixture, SharedAndCopiedFramesInterleaveInOrder) {
  EventLoop loop;
  std::vector<std::string> got;
  Connection server(loop, std::move(server_fd_),
                    [&](Buffer& p) { got.push_back(p.getString()); }, {});
  Connection client(loop, std::move(client_fd_), {}, {});

  auto shared = std::make_shared<Buffer>();
  shared->putString("two");
  Buffer first, third;
  first.putString("one");
  third.putString("three");
  client.sendFrame(first);
  client.sendFrame(std::shared_ptr<const Buffer>(shared));
  client.sendFrame(third);
  pump(loop, [&] { return got.size() == 3; });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "one");
  EXPECT_EQ(got[1], "two");
  EXPECT_EQ(got[2], "three");
}

TEST_F(ConnectionFixture, SharedFrameFanoutToManyPeers) {
  EventLoop loop;
  constexpr int kPeers = 8;
  // One listener, kPeers client connections: every peer must receive the
  // same bytes from a single shared encode.
  auto [listener, port] = listenTcp(0);
  std::vector<std::unique_ptr<Connection>> senders;
  std::vector<std::unique_ptr<Connection>> receivers;
  int received = 0;
  for (int i = 0; i < kPeers; ++i) {
    Fd client = connectTcp(port);
    Fd server;
    for (int t = 0; t < 100 && !server.valid(); ++t) {
      server = acceptTcp(listener.get());
      if (!server.valid()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server.valid());
    receivers.push_back(std::make_unique<Connection>(
        loop, std::move(client),
        [&](Buffer& p) {
          EXPECT_EQ(p.getString(), "fanout");
          ++received;
        },
        nullptr));
    senders.push_back(
        std::make_unique<Connection>(loop, std::move(server), nullptr, nullptr));
  }
  auto shared = std::make_shared<Buffer>();
  shared->putString("fanout");
  for (auto& sender : senders) {
    sender->sendFrame(std::shared_ptr<const Buffer>(shared));
  }
  pump(loop, [&] { return received == kPeers; });
  EXPECT_EQ(received, kPeers);
  pump(loop, [&] { return shared.use_count() == 1; });
  EXPECT_EQ(shared.use_count(), 1);
}

TEST_F(ConnectionFixture, PeerCloseTriggersHandler) {
  EventLoop loop;
  bool closed = false;
  Connection server(loop, std::move(server_fd_), [](Buffer&) {},
                    [&] { closed = true; });
  client_fd_.reset();  // Close the client side.
  pump(loop, [&] { return closed; });
  EXPECT_TRUE(closed);
  EXPECT_TRUE(server.closed());
}

// --- receive batches --------------------------------------------------

/// `payload` framed as [u32 length][payload].
std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  Buffer out;
  out.putU32(static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  return {out.peek(), out.peek() + out.readableBytes()};
}

/// `n` bytes that differ from any other call's (seeded by `tag`).
std::vector<std::uint8_t> pattern(std::size_t n, std::uint32_t tag) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + tag * 7919) >> (i % 3));
  }
  return out;
}

/// What a Connection delivered, checked against its ConnMetrics.
/// frames_in and bytes_in grow at the end of a batch, by its totals, so a
/// frame that finds them equal to everything delivered before it starts a
/// batch, and one that finds them behind is inside one.
struct Receiver {
  ConnMetrics metrics;
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t bytes = 0;
  int batches = 0;

  Connection connect(EventLoop& loop, Fd fd) {
    return Connection(
        loop, std::move(fd),
        [this](Buffer& p) {
          if (metrics.frames_in.load() == frames.size()) {
            ++batches;
            EXPECT_EQ(metrics.bytes_in.load(), bytes);
          }
          frames.emplace_back(p.peek(), p.peek() + p.readableBytes());
          bytes += 4 + p.readableBytes();
        },
        {}, &metrics);
  }

  /// After a batch: the counters hold every frame and byte delivered.
  void expectCounted() const {
    EXPECT_EQ(metrics.frames_in.load(), frames.size());
    EXPECT_EQ(metrics.bytes_in.load(), bytes);
  }
};

/// Writes all of `bytes` on the raw socket `fd`, running `loop` (the
/// receiving side) whenever the socket buffer is full.
void sendRaw(int fd, EventLoop& loop, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      bytes = bytes.subspan(static_cast<std::size_t>(n));
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) << errno;
    loop.runOnce(std::chrono::milliseconds(1));
  }
}

TEST_F(ConnectionFixture, OneReadOfManyFramesIsOneInOrderBatch) {
  EventLoop loop;
  Receiver receiver;
  Connection server = receiver.connect(loop, std::move(server_fd_));
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < 200; ++i) {
    sent.push_back(pattern(i % 41, i));  // Includes empty payloads.
    const auto f = framed(sent.back());
    wire.insert(wire.end(), f.begin(), f.end());
  }
  ASSERT_LT(wire.size(), 64u * 1024);  // One read takes it all.
  sendRaw(client_fd_.get(), loop, wire);
  pump(loop, [&] { return receiver.frames.size() == sent.size(); });
  EXPECT_EQ(receiver.frames, sent);
  EXPECT_EQ(receiver.batches, 1);
  EXPECT_EQ(receiver.metrics.bytes_in.load(), wire.size());
  receiver.expectCounted();
}

TEST_F(ConnectionFixture, FrameSplitAcrossReadsIsDeliveredWhole) {
  EventLoop loop;
  Receiver receiver;
  Connection server = receiver.connect(loop, std::move(server_fd_));
  const std::vector<std::vector<std::uint8_t>> sent = {pattern(1000, 1), pattern(9, 2)};
  std::vector<std::uint8_t> wire = framed(sent[0]);
  const auto second = framed(sent[1]);
  wire.insert(wire.end(), second.begin(), second.end());
  // Half a length prefix, then half the payload: nothing is complete yet.
  const std::span<const std::uint8_t> bytes(wire);
  sendRaw(client_fd_.get(), loop, bytes.first(2));
  for (int i = 0; i < 5; ++i) loop.runOnce(std::chrono::milliseconds(2));
  sendRaw(client_fd_.get(), loop, bytes.subspan(2, 500));
  for (int i = 0; i < 5; ++i) loop.runOnce(std::chrono::milliseconds(2));
  EXPECT_TRUE(receiver.frames.empty());
  EXPECT_EQ(receiver.batches, 0);
  EXPECT_EQ(receiver.metrics.frames_in.load(), 0u);
  sendRaw(client_fd_.get(), loop, bytes.subspan(502));
  pump(loop, [&] { return receiver.frames.size() == sent.size(); });
  EXPECT_EQ(receiver.frames, sent);
  EXPECT_EQ(receiver.metrics.frames_in.load(), 2u);
  EXPECT_EQ(receiver.metrics.bytes_in.load(), wire.size());
}

TEST_F(ConnectionFixture, FramesOver64KiBAreDeliveredWholeAndInOrder) {
  EventLoop loop;
  Receiver receiver;
  Connection server = receiver.connect(loop, std::move(server_fd_));
  // Larger than one 64 KiB read, between small frames: the reused payload
  // buffer grows and shrinks back to each frame's size.
  const std::vector<std::vector<std::uint8_t>> sent = {
      pattern(10, 1), pattern(200 * 1024 + 7, 2), pattern(20, 3),
      pattern(70 * 1024, 4), pattern(0, 5)};
  std::vector<std::uint8_t> wire;
  for (const auto& payload : sent) {
    const auto f = framed(payload);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  sendRaw(client_fd_.get(), loop, wire);
  pump(loop, [&] { return receiver.frames.size() == sent.size(); }, 5000);
  EXPECT_EQ(receiver.frames, sent);
  EXPECT_GE(receiver.batches, 1);
  EXPECT_EQ(receiver.metrics.frames_in.load(), sent.size());
  EXPECT_EQ(receiver.metrics.bytes_in.load(), wire.size());
}

// --- coalesced reads ----------------------------------------------------

TEST_F(ConnectionFixture, CoalescedReadinessNotifiesOnceUntilReadNow) {
  EventLoop loop;
  Receiver receiver;
  Connection server = receiver.connect(loop, std::move(server_fd_));
  int ready = 0;
  server.coalesceReads([&] { ++ready; });
  sendRaw(client_fd_.get(), loop, framed(pattern(10, 1)));
  pump(loop, [&] { return ready > 0; });
  EXPECT_EQ(ready, 1);
  // More bytes while deferred: no second notification, nothing delivered.
  sendRaw(client_fd_.get(), loop, framed(pattern(20, 2)));
  for (int i = 0; i < 10; ++i) loop.runOnce(std::chrono::milliseconds(2));
  EXPECT_EQ(ready, 1);
  EXPECT_TRUE(receiver.frames.empty());
  EXPECT_EQ(receiver.metrics.frames_in.load(), 0u);
  EXPECT_FALSE(server.closed());
}

TEST_F(ConnectionFixture, ReadNowDeliversFramesInOrderAndRearms) {
  EventLoop loop;
  Receiver receiver;
  Connection server = receiver.connect(loop, std::move(server_fd_));
  int ready = 0;
  server.coalesceReads([&] { ++ready; });
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < 100; ++i) {
    sent.push_back(pattern(i % 37, i));
    const auto f = framed(sent.back());
    wire.insert(wire.end(), f.begin(), f.end());
  }
  // Two writes, the second one while the first is deferred.
  const std::span<const std::uint8_t> bytes(wire);
  sendRaw(client_fd_.get(), loop, bytes.first(777));
  pump(loop, [&] { return ready == 1; });
  sendRaw(client_fd_.get(), loop, bytes.subspan(777));
  for (int i = 0; i < 5; ++i) loop.runOnce(std::chrono::milliseconds(2));
  server.readNow();
  EXPECT_EQ(receiver.frames, sent);
  EXPECT_EQ(receiver.batches, 1);
  EXPECT_EQ(receiver.metrics.bytes_in.load(), wire.size());
  server.readNow();  // Not ready again yet: reads nothing.
  EXPECT_EQ(receiver.batches, 1);

  // Re-armed: the next bytes notify again, and readNow delivers them.
  const auto more = pattern(50, 999);
  sendRaw(client_fd_.get(), loop, framed(more));
  pump(loop, [&] { return ready == 2; });
  EXPECT_EQ(ready, 2);
  EXPECT_EQ(receiver.frames.size(), sent.size());
  server.readNow();
  ASSERT_EQ(receiver.frames.size(), sent.size() + 1);
  EXPECT_EQ(receiver.frames.back(), more);
  receiver.expectCounted();
}

TEST_F(ConnectionFixture, CoalescingFromTheFrameHandlerLeavesTheRestForReadNow) {
  EventLoop loop;
  std::vector<std::vector<std::uint8_t>> got;
  int ready = 0;
  std::unique_ptr<Connection> server;
  server = std::make_unique<Connection>(
      loop, std::move(server_fd_),
      [&](Buffer& p) {
        got.emplace_back(p.peek(), p.peek() + p.readableBytes());
        if (got.size() == 1) server->coalesceReads([&] { ++ready; });
      },
      Connection::CloseHandler{});
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < 5; ++i) {
    sent.push_back(pattern(16, i));
    const auto f = framed(sent.back());
    wire.insert(wire.end(), f.begin(), f.end());
  }
  sendRaw(client_fd_.get(), loop, wire);  // One write: one read.
  pump(loop, [&] { return !got.empty(); });
  for (int i = 0; i < 5; ++i) loop.runOnce(std::chrono::milliseconds(2));
  // The switch ended the batch; the rest waits without a notification.
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(ready, 0);
  server->readNow();
  EXPECT_EQ(got, sent);
  // Watching again: the next bytes notify.
  sendRaw(client_fd_.get(), loop, framed(pattern(8, 99)));
  pump(loop, [&] { return ready == 1; });
  EXPECT_EQ(got.size(), sent.size());
}

TEST_F(ConnectionFixture, ReadNowInsideTheReadyHandlerKeepsWatching) {
  EventLoop loop;
  Receiver receiver;
  Connection server = receiver.connect(loop, std::move(server_fd_));
  int ready = 0;
  server.coalesceReads([&] {
    ++ready;
    server.readNow();
  });
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::uint32_t i = 0; i < 3; ++i) {
    sent.push_back(pattern(30, i));
    sendRaw(client_fd_.get(), loop, framed(sent.back()));
    pump(loop, [&] { return receiver.frames.size() == sent.size(); });
  }
  EXPECT_EQ(receiver.frames, sent);
  EXPECT_EQ(ready, 3);
}

TEST_F(ConnectionFixture, PeerEofWhileDeferredClosesAtReadNowOnce) {
  EventLoop loop;
  int closes = 0;
  int ready = 0;
  Connection server(loop, std::move(server_fd_), [](Buffer&) {}, [&] { ++closes; });
  server.coalesceReads([&] { ++ready; });
  client_fd_.reset();  // FIN: readable, not a hang-up.
  pump(loop, [&] { return ready > 0; });
  for (int i = 0; i < 5; ++i) loop.runOnce(std::chrono::milliseconds(2));
  EXPECT_EQ(ready, 1);
  EXPECT_EQ(closes, 0);
  EXPECT_FALSE(server.closed());
  server.readNow();
  EXPECT_TRUE(server.closed());
  EXPECT_EQ(closes, 1);
  server.readNow();
  for (int i = 0; i < 5; ++i) loop.runOnce(std::chrono::milliseconds(2));
  EXPECT_EQ(closes, 1);
  EXPECT_EQ(ready, 1);
}

}  // namespace
}  // namespace aalo::net
