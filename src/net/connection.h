// Framed, non-blocking TCP connection bound to an EventLoop.
//
// Wire format: every message is a frame of [u32 length][payload]. The
// connection delivers complete payloads to its frame handler and flushes
// queued writes as the socket drains (EPOLLOUT is armed only while data
// is pending, so idle connections cost nothing).
//
// Receive path: one read drains the socket and then delivers
// every complete frame, in order, as one batch. Each payload is copied
// into one per-connection Buffer that keeps its capacity, so delivery
// does not allocate per frame; the handler must not keep a reference to
// it past its return. frames_in/bytes_in grow once per batch, by the
// batch's totals.
//
// Coalesced reads (coalesceReads): on readiness the connection stops
// watching for input and runs its ready handler once; the owner calls
// readNow() when it wants the bytes, which runs the same read loop and
// watches again. The owner decides how often a busy peer is read; a
// hang-up or socket error still closes the connection at once. A frame
// handler that makes the switch ends its batch there: the frames after it
// stay buffered until the owner's readNow().
//
// Two send paths:
//  * sendFrame(span / Buffer) copies the payload into the connection's
//    coalesced staging buffer — right for unicast messages built on the
//    stack.
//  * sendFrame(shared_ptr<const Buffer>) queues a *reference*: an
//    N-peer broadcast serializes once and every connection writes the
//    same bytes straight from the shared buffer (writev with the 4-byte
//    length header), so fan-out does no per-peer payload copies. The
//    buffer must not be mutated while any connection still holds it
//    (check use_count() before reusing it as scratch).
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "net/buffer.h"
#include "net/event_loop.h"
#include "net/metrics.h"
#include "net/socket.h"

namespace aalo::net {

/// Hard upper bound on a frame payload; anything larger indicates stream
/// corruption and closes the connection.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

class Connection {
 public:
  using FrameHandler = std::function<void(Buffer& payload)>;
  using CloseHandler = std::function<void()>;
  using ReadyHandler = std::function<void()>;

  /// Takes ownership of `fd` (already non-blocking) and registers with
  /// the loop. Handlers run on the loop thread. `metrics` (optional)
  /// aggregates wire counters across every connection sharing it; null
  /// routes to the process-wide dummy sink so increments stay branch-free.
  Connection(EventLoop& loop, Fd fd, FrameHandler on_frame, CloseHandler on_close,
             ConnMetrics* metrics = nullptr);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queues one frame (length prefix added here) and flushes what the
  /// socket accepts immediately.
  void sendFrame(const Buffer& payload);
  void sendFrame(std::span<const std::uint8_t> payload);
  /// Zero-copy variant: queues the length header plus a reference to
  /// `payload`; the payload bytes are written directly from the shared
  /// buffer and the reference is dropped once fully flushed.
  void sendFrame(std::shared_ptr<const Buffer> payload);

  /// Switches to coalesced reads: readiness runs `on_ready` once and stops
  /// the input watch; nothing is read until readNow(), which `on_ready`
  /// may call itself (the watch then stays). `on_ready` must not destroy
  /// the connection. Called from the frame handler, the switch ends that
  /// batch: the frames after it stay buffered, and the connection counts
  /// as ready without notifying (the owner's readNow() delivers them).
  void coalesceReads(ReadyHandler on_ready);
  /// Coalesced mode: reads and delivers every frame that arrived since
  /// readiness, in order, then watches for input again. A no-op unless
  /// readiness was signalled and the connection is open.
  void readNow();

  bool closed() const { return closed_; }
  int fd() const { return fd_.get(); }
  std::size_t pendingBytes() const { return pending_bytes_; }
  /// Received bytes not yet delivered as frames (a partial frame, or the
  /// frames a coalesced connection holds until readNow()).
  std::size_t bufferedBytes() const { return incoming_.readableBytes(); }

  /// Hard cap on queued-but-unsent bytes (0 = unlimited). A sendFrame that
  /// would push the queue past the cap closes the connection instead of
  /// buffering without bound — the overload-protection backstop behind the
  /// coordinator's softer skip-and-coalesce policy. Counted in
  /// ConnMetrics::overflow_closes.
  void setSendQueueLimit(std::size_t bytes) { send_queue_limit_ = bytes; }

 private:
  /// One queued slice of outgoing bytes: either locally staged (owned,
  /// coalesces consecutive copied frames and headers) or a reference
  /// into a shared broadcast buffer consumed via `shared_offset`.
  struct Segment {
    Buffer owned;
    std::shared_ptr<const Buffer> shared;
    std::size_t shared_offset = 0;

    std::span<const std::uint8_t> bytes() const {
      if (!shared) return owned.readable();
      return shared->readable().subspan(shared_offset);
    }
    void consume(std::size_t n) {
      if (!shared) {
        owned.consume(n);
      } else {
        shared_offset += n;
      }
    }
    bool drained() const { return bytes().empty(); }
  };

  /// Tail owned segment to stage copied bytes into (appends one if the
  /// queue is empty or ends in a shared segment).
  Buffer& stagingTail();
  /// True (and the connection is closed) when queueing `frame_bytes` more
  /// would exceed send_queue_limit_.
  bool overflowsSendQueue(std::size_t frame_bytes);
  void onEvents(std::uint32_t events);
  void handleReadable();
  /// Hands every complete frame in incoming_ to on_frame_, up to a switch
  /// to coalesced reads; returns false when the stream is corrupt (a
  /// length over kMaxFrameBytes).
  bool deliverFrames();
  void flush();
  void close();
  void updateInterest();

  EventLoop& loop_;
  Fd fd_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  ConnMetrics* metrics_;
  ReadyHandler on_ready_;  ///< Set in coalesced mode.
  Buffer incoming_;
  Buffer payload_;  ///< The frame being delivered; reused across frames.
  std::deque<Segment> outgoing_;
  std::size_t pending_bytes_ = 0;
  std::size_t send_queue_limit_ = 0;
  bool read_deferred_ = false;  ///< Readiness signalled, not yet read.
  std::uint32_t interest_ = 0;  ///< The epoll mask last registered.
  bool closed_ = false;
};

}  // namespace aalo::net
