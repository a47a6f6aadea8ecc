// Deterministic fault injection for the Aalo control plane (test support:
// linked by the chaos, ha and coordination-equivalence suites only, never
// by the library or the tools).
//
// ChaosProxy is an in-process TCP relay: peers connect to its listen port
// and it forwards their byte stream to the upstream port (and back),
// re-framing at message granularity so a seeded util::Rng policy can
// drop, delay, duplicate, reorder, truncate, or bit-corrupt individual
// frames, split the relayed stream at arbitrary byte boundaries, and
// sever/heal the link on command. Every decision is drawn from a
// per-direction Rng in frame-arrival order, so a scenario replayed with
// the same seed and the same frame sequence produces the same mangled
// stream — failure modes become plain deterministic unit tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/buffer.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "util/rng.h"
#include "util/units.h"

namespace aalo::net {

/// Per-direction mangling policy; all probabilities are per frame.
struct ChaosPolicy {
  double drop = 0;       ///< Frame silently discarded.
  double duplicate = 0;  ///< Frame forwarded twice back-to-back.
  double reorder = 0;    ///< Frame held and emitted after its successor.
  double truncate = 0;   ///< Payload cut short (still correctly framed).
  double corrupt = 0;    ///< One random payload bit flipped.
  double delay = 0;      ///< Frame forwarded after delay_min..delay_max.
  util::Seconds delay_min = 0.001;
  util::Seconds delay_max = 0.005;
  /// Split relayed writes into chunks of at most this many bytes with a
  /// short pause between them (exercises partial-frame reassembly).
  /// 0 = write as much as the socket accepts.
  std::size_t max_write_bytes = 0;
  /// Drop every frame in this direction (a one-way link failure); the
  /// TCP connection itself stays up.
  bool blackhole = false;
  /// Relay only a strict prefix of the framed bytes (possibly cutting
  /// inside the 4-byte length header) and then sever the session —
  /// simulating a sender killed mid-write (torn broadcast). The receiver
  /// must discard the partial frame without ever half-applying it.
  double kill_mid_frame = 0;
};

/// Monotonic counters; safe to read from any thread.
struct ChaosStats {
  using Counter = std::atomic<std::uint64_t>;
  Counter sessions_accepted{0};
  Counter sessions_refused{0};  ///< Accepted while the link was down.
  Counter frames_relayed{0};    ///< Frames forwarded (possibly mangled).
  Counter frames_dropped{0};
  Counter frames_duplicated{0};
  Counter frames_reordered{0};
  Counter frames_truncated{0};
  Counter frames_corrupted{0};
  Counter frames_delayed{0};
  Counter frames_blackholed{0};
  Counter frames_torn{0};  ///< Sessions severed mid-frame (kill_mid_frame).
  Counter link_kills{0};

  ChaosStats() = default;
  ChaosStats(const ChaosStats&) = delete;
  ChaosStats& operator=(const ChaosStats&) = delete;
};

struct ChaosProxyConfig {
  std::uint16_t listen_port = 0;  ///< 0 picks an ephemeral port.
  std::uint16_t upstream_port = 0;
  std::uint64_t seed = 1;
  ChaosPolicy client_to_upstream;
  ChaosPolicy upstream_to_client;
  /// Record one human-readable line per policy decision (see trace()).
  bool record_trace = false;
};

class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyConfig config);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds the listen port and starts the relay thread.
  void start();
  /// Idempotent and safe under concurrent callers.
  void stop();

  std::uint16_t port() const { return port_; }

  /// Severs every active session (peers see a close). New connections are
  /// still accepted; combine with setLinkUp(false) to refuse them too.
  void killLink();

  /// While down, existing sessions are severed and new connections are
  /// closed immediately after accept.
  void setLinkUp(bool up);

  /// Replaces both direction policies (applied to subsequent frames).
  void setPolicies(ChaosPolicy client_to_upstream, ChaosPolicy upstream_to_client);

  const ChaosStats& stats() const { return stats_; }

  /// Decision log (only populated with record_trace): entries such as
  /// "c2u#12 drop" in per-direction frame order. Deterministic for a
  /// given seed and frame sequence.
  std::vector<std::string> trace() const;

 private:
  /// One endpoint of a relayed session: raw fd plus staging buffers.
  struct Leg {
    Fd fd;
    Buffer incoming;
    Buffer outgoing;
    bool want_write = false;
    bool flush_timer_armed = false;
  };

  /// Frame held back by a reorder decision (emitted after its successor).
  struct HeldFrame {
    std::vector<std::uint8_t> blob;
    int copies = 1;
  };

  struct Session {
    std::uint64_t id = 0;
    Leg client;
    Leg upstream;
    std::optional<HeldFrame> held_c2u;
    std::optional<HeldFrame> held_u2c;
    bool closed = false;
  };

  void onAcceptable();
  void addLeg(const std::shared_ptr<Session>& session, bool client_side);
  void onLegEvents(const std::shared_ptr<Session>& session, bool client_side,
                   std::uint32_t events);
  void relayFrames(const std::shared_ptr<Session>& session, bool client_to_upstream);
  void deliver(const std::shared_ptr<Session>& session, bool client_to_upstream,
               const std::vector<std::uint8_t>& blob, int copies);
  void flushLeg(const std::shared_ptr<Session>& session, bool client_side);
  void closeSession(const std::shared_ptr<Session>& session);
  void record(bool client_to_upstream, std::uint64_t frame_index,
              const char* action);

  ChaosProxyConfig config_;
  EventLoop loop_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::mutex lifecycle_mutex_;

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
  util::Rng rng_c2u_;
  util::Rng rng_u2c_;
  std::uint64_t frames_c2u_ = 0;
  std::uint64_t frames_u2c_ = 0;
  bool link_up_ = true;

  ChaosStats stats_;
  mutable std::mutex trace_mutex_;
  std::vector<std::string> trace_;
};

}  // namespace aalo::net
