// coord_10k: a live runtime::Coordinator (default config but Δ = 20 ms) on
// loopback, driven by one open-loop generator thread that plays 10,000
// logical daemons over 4 TCP connections.
//
// Each logical daemon owns its own coflows (so a connection's reports can
// be keyed by the connection's Hello id) and ticks every Δ on a fixed
// phase. On a tick it mirrors runtime::Daemon's report policy: absolute
// sizes of the coflows that changed since its last report, a full resync
// every 10th report, an empty keepalive every 3rd idle tick, and the echo
// of the last epoch its connection applied. Coflows grow at random ticks,
// cross D-CLAS thresholds, finish and unregister; each finished coflow is
// replaced by a new one, so the population and the delta size stay steady.
//
// Reports are timed from when they were due, not from when they were
// sent. The report -> schedule lag of a threshold crossing runs from the
// tick that reported it to the first frame on its connection that carries
// the new queue. The generator batches its frames per connection and
// writes them with one send per loop pass.
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "net/buffer.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "runtime/coordinator.h"
#include "runtime/schedule_state.h"
#include "sched/dclas.h"

using namespace aalo;

namespace perfbench {
namespace {

/// Fabricated coflow ids start here, clear of any id the coordinator mints.
constexpr std::int64_t kIdBase = std::int64_t{1} << 40;
constexpr int kResyncEvery = 10;     // runtime::DaemonConfig::resync_intervals
constexpr int kKeepaliveEvery = 3;   // ...::report_keepalive_intervals
constexpr int kSnapshotEvery = 20;   // CoordinatorConfig::snapshot_every

struct CoordShape {
  std::size_t daemons = 10'000;
  std::size_t connections = 4;
  std::size_t coflows_per_daemon = 10;
  /// Coordination interval Δ of the coordinator and of every logical
  /// daemon. Twice the 10 ms default: at 10 ms the report policy of 10k
  /// daemons alone keeps the coordinator ~75% busy on a 4-core host and it
  /// starts evicting daemons whose reports wait in its backlog; at 20 ms it
  /// is about half busy. (Fig. 14 uses Δ = 1 s at this scale.)
  util::Seconds delta = 0.020;
  /// Probability that a coflow sends more bytes in one Δ: about 650
  /// changed entries per Δ, on top of the report policy's own ~3.3k
  /// keepalive frames and ~3.3k resync entries per Δ.
  double change_p = 0.006;
  /// Increments a coflow needs to finish, drawn uniformly.
  int min_steps = 10;
  int max_steps = 30;
  /// Coflow total size, log10-uniform bytes: 1 MB .. 10 GB spans the first
  /// three D-CLAS thresholds (10 MB, 100 MB, 1 GB).
  double min_log10 = 6;
  double max_log10 = 10;
  double warmup_s = 0.5;
  std::size_t setups = 3;
};

struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    const std::uint64_t v = splitmix64(s);
    s += 0x9e3779b97f4a7c15ULL;
    return v;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

coflow::CoflowId idOf(std::uint32_t serial) {
  return coflow::CoflowId{.external = kIdBase + serial, .internal = 0};
}

/// One recorded operation of the report stream, replayed through a
/// standalone ScheduleState after the run.
struct Op {
  enum Kind : std::uint8_t { kSize, kUnregister, kRound };
  std::uint32_t serial;
  Kind kind;
  std::uint8_t conn;
  std::uint16_t done;  ///< kSize: increments reported (bytes = done x inc).
};

/// Histogram of lateness in µs (exact to 1 µs below 1 s).
class MicrosHistogram {
 public:
  void add(double seconds) {
    const auto us = static_cast<std::size_t>(std::max(0.0, seconds) * 1e6);
    ++buckets_[std::min(us, buckets_.size() - 1)];
    ++count_;
  }
  double percentileMs(double p) const {
    if (count_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(std::ceil(p / 100.0 * count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= std::max<std::uint64_t>(target, 1)) return static_cast<double>(i) * 1e-3;
    }
    return static_cast<double>(buckets_.size()) * 1e-3;
  }

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(1'000'000, 0);
  std::uint64_t count_ = 0;
};

/// Counters of one measured window.
struct Window {
  std::vector<double> lag_s;
  std::vector<double> lag_avg_s, lag_p95_s;  ///< Per 1 s slice.
  std::size_t slice_lag_begin = 0;
  MicrosHistogram late;
  std::vector<double> busy_ms;
  std::vector<double> cpu_ms_per_round;  ///< Coordinator, per 1 s slice.
  double gen_cpu_s = 0;
  std::uint64_t rounds = 0;
  std::uint64_t behind_rounds = 0;
  std::uint64_t stall_rounds = 0;  ///< Late, but the generator was not running.
  std::uint64_t tick_rounds = 0;
  std::uint64_t frames_in = 0, frames_out = 0;
  std::uint64_t delta_frames = 0, snapshot_frames = 0, delta_entries = 0;
  std::uint64_t bytes_in = 0, bytes_out = 0;
  std::uint64_t changed_entries = 0;
};

struct CoflowState {
  std::uint32_t slot = 0;
  std::uint16_t steps = 0;
  std::uint16_t done = 0;
  double inc = 0;  ///< Whole bytes per increment, so sizes stay exact.
  std::int8_t reported_queue = -1;
  std::int8_t pending_queue = -1;  ///< Crossing awaiting its schedule frame.
  bool live = true;
  bool awaiting_seed = false;
  Clock::time_point pending_due{};
};

struct LogicalDaemon {
  Rng rng{0};
  std::uint64_t min_next = 0;  ///< Earliest change tick among its coflows.
  int reports_since_resync = 0;
  int ticks_since_report = 0;
  std::vector<std::uint32_t> dirty;  ///< Local slot indexes.
};

struct Conn {
  net::Fd fd;
  net::Buffer in;
  net::Buffer out;
  std::uint64_t epoch = 0;  ///< Highest epoch received (the echo).
};

class Fleet {
 public:
  Fleet(const CoordShape& shape, std::uint64_t seed, bool record_stream)
      : shape_(shape), record_(record_stream) {
    thresholds_ = sched::DClasConfig{}.thresholds();
    dt_ns_ = static_cast<std::int64_t>(shape.delta * 1e9 / static_cast<double>(shape.daemons));
    daemons_.resize(shape.daemons);
    coflows_.reserve(4 * shape.daemons * shape.coflows_per_daemon);
    slots_.resize(shape.daemons * shape.coflows_per_daemon);
    slot_next_.resize(slots_.size());
    for (std::size_t d = 0; d < shape.daemons; ++d) {
      daemons_[d].rng = Rng{seed * 0x100000001b3ULL + d};
    }
    auto& sp = Tracer::instance();
    span_loop_ = sp.intern("loadgen.pass");
    span_encode_report_ = sp.intern("net.encode_report");
    span_decode_delta_ = sp.intern("net.decode_delta");
    span_decode_snapshot_ = sp.intern("net.decode_snapshot");
    span_encode_delta_ = sp.intern("net.encode_delta");
    span_encode_snapshot_ = sp.intern("net.encode_snapshot");
  }

  /// Connects and seeds; returns once every seeded coflow has appeared in
  /// the schedule frames of its own connection.
  void setUp(runtime::Coordinator& coordinator) {
    conns_.resize(shape_.connections);
    pending_.resize(shape_.connections);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      conns_[c].fd = net::connectTcp(coordinator.port());
      net::Message hello;
      hello.type = net::MessageType::kHello;
      hello.daemon_id = c;
      send(c, hello);
    }
    flush();
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (coordinator.daemonCount() < conns_.size()) {
      if (Clock::now() > deadline) throw std::runtime_error("daemons did not connect");
      pump(Clock::now() + std::chrono::milliseconds(1));
    }
    // Seed: every logical daemon's forced full report (what a daemon sends
    // after connecting), with coflows part-way through their lives. Paced
    // in twentieths, 10 ms apart, rather than one burst.
    const std::size_t chunk = std::max<std::size_t>(1, shape_.daemons / 20);
    std::size_t seeded = 0;
    auto next_chunk = Clock::now();
    while (seeded < shape_.daemons || awaiting_seed_ > 0) {
      if (Clock::now() > deadline) throw std::runtime_error("seeded schedule never arrived");
      if (seeded < shape_.daemons && Clock::now() >= next_chunk) {
        next_chunk = Clock::now() + std::chrono::milliseconds(10);
        for (const std::size_t end = std::min(shape_.daemons, seeded + chunk); seeded < end;
             ++seeded) {
          seedDaemon(seeded);
        }
        flush();
      }
      pump(Clock::now() + std::chrono::milliseconds(1));
    }
  }

  /// Runs the open loop until `end`. Ticks are due on a fixed grid from
  /// the first call on.
  void run(Clock::time_point end, Window* window, runtime::Coordinator& coordinator) {
    if (!started_) {
      started_ = true;
      t0_ = Clock::now();
    }
    window_ = window;
    const double cpu0 = processCpuSeconds(), gen0 = threadCpuSeconds();
    on_time_cpu_ = gen0;
    on_time_wall_ = Clock::now();
    const std::uint64_t epoch0 = coordinator.epoch();
    double slice_cpu = cpu0, slice_gen = gen0;
    std::uint64_t slice_epoch = epoch0;
    auto slice_start = Clock::now();
    // Coordinator CPU per round and lag percentiles are kept per 1 s slice
    // (the last one may be shorter), so a single host stall moves one slice.
    auto closeSlice = [&] {
      const double cpu = processCpuSeconds(), gen = threadCpuSeconds();
      const std::uint64_t epoch = coordinator.epoch();
      if (epoch > slice_epoch) {
        window_->cpu_ms_per_round.push_back(((cpu - slice_cpu) - (gen - slice_gen)) * 1e3 /
                                            static_cast<double>(epoch - slice_epoch));
      }
      const std::vector<double> lags(
          window_->lag_s.begin() + static_cast<std::ptrdiff_t>(window_->slice_lag_begin),
          window_->lag_s.end());
      window_->slice_lag_begin = window_->lag_s.size();
      if (!lags.empty()) {
        window_->lag_avg_s.push_back(mean(lags));
        window_->lag_p95_s.push_back(percentile(lags, 95));
      }
      slice_cpu = cpu;
      slice_gen = gen;
      slice_epoch = epoch;
      slice_start = Clock::now();
    };
    ticking_ = true;
    while (Clock::now() < end) {
      Span span(span_loop_, last_epoch_);
      runDueTicks();
      flush();
      pump(std::min(end, Clock::now() + std::chrono::microseconds(200)));
      if (window_ != nullptr && secondsSince(slice_start) >= 1.0) closeSlice();
    }
    if (window_ != nullptr && secondsSince(slice_start) >= 0.2) closeSlice();
    ticking_ = false;
    if (window_ != nullptr) {
      window_->rounds = coordinator.epoch() - epoch0;
      window_->gen_cpu_s = threadCpuSeconds() - gen0;
    }
    window_ = nullptr;
  }

  /// Stops ticking and keeps reading for `seconds`, so every crossing sent
  /// so far can be reflected.
  void drain(double seconds) {
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      flush();
      pump(std::min(end, Clock::now() + std::chrono::milliseconds(1)));
    }
  }

  std::uint64_t crossings() const { return crossings_; }
  std::uint64_t unreflected() const {
    std::uint64_t n = 0;
    for (const CoflowState& cf : coflows_) n += cf.live && cf.pending_queue >= 0 ? 1 : 0;
    return n;
  }
  std::uint64_t inconsistentFrames() const { return inconsistent_frames_; }
  std::uint64_t checkedFrames() const { return checked_frames_; }
  std::uint64_t reencodeMismatches() const { return reencode_mismatch_; }
  std::uint64_t reencoded() const { return reencoded_; }

  /// Replays the recorded stream through a standalone ScheduleState the
  /// way the coordinator applies it, and times the layer calls.
  struct Replay {
    std::vector<net::ScheduleEntry> snapshot;
    double apply_ns_per_entry = 0;
    double build_delta_us = 0;
    double snapshot_us = 0;
  };
  Replay replayStream() const {
    runtime::ScheduleState state(thresholds_, 0);
    std::vector<net::ScheduleEntry> entries;
    std::vector<coflow::CoflowId> removals;
    std::vector<net::ScheduleEntry> snap;
    double apply_s = 0, delta_s = 0, snapshot_s = 0;
    std::uint64_t applied = 0, deltas = 0, snapshots = 0;
    auto batch_start = Clock::now();
    for (const Op& op : ops_) {
      switch (op.kind) {
        case Op::kSize:
          state.applySize(op.conn, idOf(op.serial),
                          static_cast<double>(op.done) * coflows_[op.serial].inc);
          ++applied;
          break;
        case Op::kUnregister:
          state.unregisterCoflow(idOf(op.serial));
          break;
        case Op::kRound: {
          apply_s += secondsSince(batch_start);
          auto t = Clock::now();
          state.buildDelta(entries, removals);
          delta_s += secondsSince(t);
          ++deltas;
          if (deltas % kSnapshotEvery == 0) {
            t = Clock::now();
            state.snapshotEntries(snap);
            snapshot_s += secondsSince(t);
            ++snapshots;
          }
          batch_start = Clock::now();
          break;
        }
      }
    }
    apply_s += secondsSince(batch_start);
    Replay replay;
    state.snapshotEntries(replay.snapshot);
    replay.apply_ns_per_entry = applied > 0 ? apply_s * 1e9 / static_cast<double>(applied) : 0;
    replay.build_delta_us = deltas > 0 ? delta_s * 1e6 / static_cast<double>(deltas) : 0;
    replay.snapshot_us = snapshots > 0 ? snapshot_s * 1e6 / static_cast<double>(snapshots) : 0;
    return replay;
  }

 private:
  Clock::time_point dueOf(std::uint64_t tick) const {
    return t0_ + std::chrono::nanoseconds(static_cast<std::int64_t>(tick) * dt_ns_);
  }

  std::uint64_t geometric(Rng& rng) const {
    const double u = std::max(rng.uniform(), 1e-300);
    return 1 + static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-shape_.change_p)));
  }

  /// Puts a new coflow into local slot `i` of daemon `d` at period `k`.
  std::uint32_t newCoflow(std::size_t d, std::size_t i, std::uint64_t k) {
    LogicalDaemon& dm = daemons_[d];
    const auto serial = static_cast<std::uint32_t>(coflows_.size());
    CoflowState cf;
    cf.slot = static_cast<std::uint32_t>(d * shape_.coflows_per_daemon + i);
    cf.steps = static_cast<std::uint16_t>(
        shape_.min_steps +
        static_cast<int>(dm.rng.next() % static_cast<std::uint64_t>(shape_.max_steps - shape_.min_steps + 1)));
    const double size = std::pow(10.0, shape_.min_log10 + (shape_.max_log10 - shape_.min_log10) *
                                                              dm.rng.uniform());
    cf.inc = std::max(1.0, std::round(size / cf.steps));
    coflows_.push_back(cf);
    slots_[cf.slot] = serial;
    slot_next_[cf.slot] = k + geometric(dm.rng);
    return serial;
  }

  void seedDaemon(std::size_t d) {
    LogicalDaemon& dm = daemons_[d];
    for (std::size_t i = 0; i < shape_.coflows_per_daemon; ++i) {
      const std::uint32_t serial = newCoflow(d, i, 0);
      CoflowState& cf = coflows_[serial];
      cf.done = static_cast<std::uint16_t>(dm.rng.next() % cf.steps);
      if (cf.done > 0) {
        cf.awaiting_seed = true;
        ++awaiting_seed_;
      }
    }
    sendReport(d, /*full=*/true, Clock::now());
  }

  std::size_t connOf(std::size_t daemon) const { return daemon % shape_.connections; }

  void send(std::size_t c, const net::Message& message) {
    net::Buffer& out = conns_[c].out;
    scratch_.clear();
    net::encodeMessage(message, scratch_);
    out.putU32(static_cast<std::uint32_t>(scratch_.readableBytes()));
    out.append(scratch_.readable());
    if (window_ != nullptr) {
      ++window_->frames_out;
      window_->bytes_out += 4 + scratch_.readableBytes();
    }
  }

  /// Builds and queues logical daemon `d`'s report (full or changed-only).
  void sendReport(std::size_t d, bool full, Clock::time_point due) {
    LogicalDaemon& dm = daemons_[d];
    const std::size_t c = connOf(d);
    report_.type = net::MessageType::kSizeReport;
    report_.daemon_id = d;
    report_.epoch = conns_[c].epoch;
    report_.sizes.clear();
    auto add = [&](std::size_t i) {
      const std::uint32_t serial = slots_[d * shape_.coflows_per_daemon + i];
      CoflowState& cf = coflows_[serial];
      if (cf.done == 0) return;  // Not yet sending: nothing to account.
      const double bytes = cf.done * cf.inc;
      report_.sizes.push_back(net::CoflowSize{idOf(serial), bytes});
      if (record_) ops_.push_back(Op{serial, Op::kSize, static_cast<std::uint8_t>(c), cf.done});
      const int queue = sched::queueForSize(thresholds_, bytes);
      if (queue != cf.reported_queue) {
        if (cf.reported_queue >= 0) {
          if (cf.pending_queue < 0) pending_[c].push_back(serial);
          cf.pending_queue = static_cast<std::int8_t>(queue);
          cf.pending_due = due;
          ++crossings_;
        }
        cf.reported_queue = static_cast<std::int8_t>(queue);
      }
    };
    if (full) {
      for (std::size_t i = 0; i < shape_.coflows_per_daemon; ++i) add(i);
    } else {
      for (const std::uint32_t i : dm.dirty) add(i);
    }
    dm.dirty.clear();
    if (!full && report_.sizes.empty() && ++dm.ticks_since_report < kKeepaliveEvery) {
      return;  // Suppressed idle tick, as runtime::Daemon does.
    }
    dm.ticks_since_report = 0;
    if (full) {
      dm.reports_since_resync = 0;
    } else {
      ++dm.reports_since_resync;
    }
    {
      Span span(span_encode_report_, last_epoch_);
      send(c, report_);
    }
  }

  /// Runs the ticks due by now, at most one round of them per call, so a
  /// generator that cannot keep up still returns to its loop (and stops at
  /// the end of the window) instead of chasing its backlog for ever.
  void runDueTicks() {
    if (!ticking_) return;
    const auto now = Clock::now();
    for (std::size_t n = 0; n < shape_.daemons && dueOf(next_tick_) <= now; ++n) {
      tick(next_tick_++, now);
    }
  }

  void tick(std::uint64_t tick, Clock::time_point now) {
    const std::size_t d = tick % shape_.daemons;
    const std::uint64_t k = tick / shape_.daemons;
    const Clock::time_point due = dueOf(tick);
    LogicalDaemon& dm = daemons_[d];
    if (window_ != nullptr) {
      const double late = std::chrono::duration<double>(now - due).count();
      window_->late.add(late);
      if (k != last_round_) {
        // The generator fell behind when it starts two rounds in a row
        // more than Δ late (it did not catch up within a whole round)
        // although it was busy for at least 90% of the time since it last
        // started a round on time. Late starts while its thread mostly did
        // not run are host stalls (vCPU preemption on a shared host lasts
        // tens of ms): counted apart, not as failures.
        const double cpu = threadCpuSeconds();
        last_round_ = k;
        ++window_->tick_rounds;
        const bool late_start = late > shape_.delta;
        if (!late_start) {
          on_time_cpu_ = cpu;
          on_time_wall_ = now;
        } else if (prev_round_late_) {
          const double busy =
              (cpu - on_time_cpu_) /
              std::max(1e-9, std::chrono::duration<double>(now - on_time_wall_).count());
          ++(busy >= 0.9 ? window_->behind_rounds : window_->stall_rounds);
        }
        prev_round_late_ = late_start;
      }
    }
    std::size_t finished[64];
    std::size_t n_finished = 0;
    if (k >= dm.min_next) {
      std::uint64_t min_next = UINT64_MAX;
      for (std::size_t i = 0; i < shape_.coflows_per_daemon; ++i) {
        const std::size_t slot = d * shape_.coflows_per_daemon + i;
        if (slot_next_[slot] <= k) {
          CoflowState& cf = coflows_[slots_[slot]];
          ++cf.done;
          dm.dirty.push_back(static_cast<std::uint32_t>(i));
          if (window_ != nullptr) ++window_->changed_entries;
          slot_next_[slot] = k + geometric(dm.rng);
          if (cf.done >= cf.steps && n_finished < 64) finished[n_finished++] = i;
        }
        min_next = std::min(min_next, slot_next_[slot]);
      }
      dm.min_next = min_next;
    }
    const bool full = dm.reports_since_resync + 1 >= kResyncEvery;
    sendReport(d, full, due);
    for (std::size_t f = 0; f < n_finished; ++f) {
      // The coflow is complete: its client unregisters it (after the final
      // size went out), and the slot takes a new coflow.
      const std::size_t i = finished[f];
      const std::uint32_t serial = slots_[d * shape_.coflows_per_daemon + i];
      CoflowState& cf = coflows_[serial];
      cf.live = false;
      net::Message unregister;
      unregister.type = net::MessageType::kUnregisterCoflow;
      unregister.coflow = idOf(serial);
      send(connOf(d), unregister);
      if (record_) {
        ops_.push_back(Op{serial, Op::kUnregister, static_cast<std::uint8_t>(connOf(d)), 0});
      }
      newCoflow(d, i, k);
      dm.min_next = std::min(dm.min_next, slot_next_[d * shape_.coflows_per_daemon + i]);
    }
  }

  void flush() {
    for (Conn& conn : conns_) {
      while (conn.out.readableBytes() > 0) {
        const auto bytes = conn.out.readable();
        const ssize_t n = ::send(conn.fd.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n > 0) {
          conn.out.consume(static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("coordinator connection failed on send");
      }
    }
  }

  /// Waits for input until `until` and handles every complete frame.
  void pump(Clock::time_point until) {
    pollfd fds[16];
    const std::size_t n = conns_.size();
    for (std::size_t c = 0; c < n; ++c) {
      fds[c] = pollfd{conns_[c].fd.get(),
                      static_cast<short>(POLLIN | (conns_[c].out.readableBytes() ? POLLOUT : 0)),
                      0};
    }
    const auto wait = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(until - Clock::now()).count());
    timespec ts{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds, n, &ts, nullptr) <= 0) return;
    for (std::size_t c = 0; c < n; ++c) {
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) readConn(c);
    }
  }

  void readConn(std::size_t c) {
    Conn& conn = conns_[c];
    for (;;) {
      std::uint8_t* area = conn.in.writableArea(1 << 16);
      const ssize_t n = ::recv(conn.fd.get(), area, 1 << 16, 0);
      if (n > 0) {
        conn.in.commitWrite(static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("coordinator closed connection " + std::to_string(c) + " at " +
                               std::to_string(secondsSince(created_)) + " s, last epoch " +
                               std::to_string(last_epoch_) + ", tick " + std::to_string(next_tick_));
    }
    const Clock::time_point received = Clock::now();
    while (conn.in.readableBytes() >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, conn.in.peek(), 4);  // Little-endian, as net::Buffer.
      if (len > net::kMaxFrameBytes) throw std::runtime_error("oversized frame");
      if (conn.in.readableBytes() < 4 + std::size_t{len}) break;
      conn.in.consume(4);
      net::Buffer payload;
      payload.append(conn.in.peek(), len);
      conn.in.consume(len);
      handleFrame(c, payload, received);
      // A snapshot round brings one large frame per connection; sending
      // between them keeps the generator on schedule.
      runDueTicks();
    }
  }

  void handleFrame(std::size_t c, net::Buffer& payload, Clock::time_point received) {
    const std::size_t frame_bytes = payload.readableBytes();
    const auto type = static_cast<net::MessageType>(payload.peek()[0]);
    const bool snapshot = type == net::MessageType::kScheduleUpdate;
    if (!snapshot && type != net::MessageType::kScheduleDelta) return;
    // A snapshot round sends every connection the same bytes: decode the
    // first copy, and only compare the others with it.
    const bool repeat = snapshot && frame_bytes == snapshot_bytes_.size() &&
                        std::memcmp(payload.peek(), snapshot_bytes_.data(), frame_bytes) == 0;
    net::Message delta;
    if (!repeat) {
      net::Message& msg = snapshot ? snapshot_ : delta;
      std::vector<std::uint8_t> original(payload.peek(), payload.peek() + frame_bytes);
      {
        Span span(snapshot ? span_decode_snapshot_ : span_decode_delta_, last_epoch_);
        msg = net::decodeMessage(payload);
      }
      if (Tracer::instance().enabled()) {
        // The coordinator encoded this frame; encoding it again times that
        // step and checks the codec round-trips byte for byte.
        net::Buffer again;
        {
          Span span(snapshot ? span_encode_snapshot_ : span_encode_delta_, last_epoch_);
          net::encodeMessage(msg, again);
        }
        ++reencoded_;
        const auto bytes = again.readable();
        if (bytes.size() != original.size() ||
            std::memcmp(bytes.data(), original.data(), original.size()) != 0) {
          ++reencode_mismatch_;
        }
      }
      bool consistent = true;
      for (const net::ScheduleEntry& e : msg.schedule) {
        if (e.queue != sched::queueForSize(thresholds_, e.global_bytes)) consistent = false;
      }
      if (!consistent) ++inconsistent_frames_;
      if (snapshot) {
        snapshot_bytes_ = std::move(original);
        snapshot_queue_.assign(coflows_.size(), -1);
        for (const net::ScheduleEntry& e : msg.schedule) {
          const std::int64_t serial = e.id.external - kIdBase;
          if (serial >= 0 && static_cast<std::size_t>(serial) < coflows_.size()) {
            snapshot_queue_[static_cast<std::size_t>(serial)] = static_cast<std::int8_t>(e.queue);
          }
        }
      }
    }
    ++checked_frames_;
    const net::Message& msg = snapshot ? snapshot_ : delta;

    Conn& conn = conns_[c];
    conn.epoch = std::max(conn.epoch, msg.epoch);
    if (c == 0 && msg.epoch > last_epoch_) {
      if (window_ != nullptr && last_epoch_arrival_ != Clock::time_point{} &&
          msg.epoch == last_epoch_ + 1) {
        window_->busy_ms.push_back(
            (std::chrono::duration<double>(received - last_epoch_arrival_).count() - shape_.delta) *
            1e3);
      }
      last_epoch_ = msg.epoch;
      last_epoch_arrival_ = received;
      if (record_) ops_.push_back(Op{0, Op::kRound, 0, 0});
    }
    if (window_ != nullptr) {
      ++window_->frames_in;
      window_->bytes_in += 4 + frame_bytes;
      if (snapshot) {
        ++window_->snapshot_frames;
      } else {
        ++window_->delta_frames;
        window_->delta_entries += msg.schedule.size();
      }
    }
    auto reflect = [&](CoflowState& cf) {
      cf.pending_queue = -1;
      if (window_ != nullptr) {
        window_->lag_s.push_back(std::chrono::duration<double>(received - cf.pending_due).count());
      }
    };
    if (snapshot) {
      // Walk this connection's pending crossings instead of the whole
      // snapshot; the list is compacted as it goes.
      std::vector<std::uint32_t>& pending = pending_[c];
      std::size_t keep = 0;
      for (const std::uint32_t serial : pending) {
        CoflowState& cf = coflows_[serial];
        if (!cf.live || cf.pending_queue < 0) continue;
        if (snapshot_queue_[serial] == cf.pending_queue) {
          reflect(cf);
          continue;
        }
        pending[keep++] = serial;
      }
      pending.resize(keep);
    }
    if (snapshot && awaiting_seed_ == 0) return;
    for (const net::ScheduleEntry& e : msg.schedule) {
      const std::int64_t serial = e.id.external - kIdBase;
      if (serial < 0 || static_cast<std::size_t>(serial) >= coflows_.size()) continue;
      CoflowState& cf = coflows_[static_cast<std::size_t>(serial)];
      if (connOf(cf.slot / shape_.coflows_per_daemon) != c) continue;
      if (cf.awaiting_seed) {
        cf.awaiting_seed = false;
        --awaiting_seed_;
      }
      if (cf.pending_queue >= 0 && e.queue == cf.pending_queue) reflect(cf);
    }
  }

  CoordShape shape_;
  bool record_;
  std::vector<util::Bytes> thresholds_;
  std::int64_t dt_ns_ = 0;
  std::vector<LogicalDaemon> daemons_;
  std::vector<std::uint32_t> slots_;      ///< Slot -> serial of its coflow.
  std::vector<std::uint64_t> slot_next_;  ///< Slot -> next change period.
  std::vector<CoflowState> coflows_;      ///< By serial.
  std::vector<Conn> conns_;
  std::deque<Op> ops_;
  /// Per connection: coflows that may have a crossing awaiting its frame.
  std::vector<std::vector<std::uint32_t>> pending_;
  /// Last decoded snapshot, its bytes, and its queue by coflow serial.
  net::Message snapshot_;
  std::vector<std::uint8_t> snapshot_bytes_;
  std::vector<std::int8_t> snapshot_queue_;  // A deque: growing it never copies (no stalls).
  net::Message report_;
  net::Buffer scratch_;
  Window* window_ = nullptr;
  bool started_ = false;
  bool ticking_ = false;
  Clock::time_point t0_{};
  Clock::time_point created_ = Clock::now();
  std::uint64_t next_tick_ = 0;
  std::uint64_t last_round_ = UINT64_MAX;
  bool prev_round_late_ = false;
  double on_time_cpu_ = 0;  ///< Generator CPU when it last started a round on time.
  Clock::time_point on_time_wall_{};
  std::uint64_t last_epoch_ = 0;
  Clock::time_point last_epoch_arrival_{};
  std::size_t awaiting_seed_ = 0;
  std::uint64_t crossings_ = 0;
  std::uint64_t checked_frames_ = 0, inconsistent_frames_ = 0;
  std::uint64_t reencoded_ = 0, reencode_mismatch_ = 0;
  int span_loop_, span_encode_report_, span_decode_delta_, span_decode_snapshot_,
      span_encode_delta_, span_encode_snapshot_;
};

Clock::time_point after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

}  // namespace

Result runCoord10k(const Options& o) {
  CoordShape shape;
  if (o.tiny) {
    shape.daemons = 200;
    shape.connections = 2;
    shape.warmup_s = 0.2;
  }
  Result r;
  runtime::CoordinatorConfig config;  // One shard, a snapshot every 20 frames.
  config.sync_interval = shape.delta;
  // A connection carries 2,500 logical daemons, so the per-connection
  // liveness and one-way watchdogs do not model any daemon; as in the
  // multiplexed fig14 sweep, they are off. (With them on, a host stall
  // longer than 10 Δ evicts a whole connection and aborts the run.)
  config.liveness_timeout_intervals = 0;
  config.one_way_timeout_intervals = 0;

  // Set-up, repeated: all but the last fleet are torn down right away.
  std::vector<double> setup_s;
  std::unique_ptr<runtime::Coordinator> coordinator;
  std::unique_ptr<Fleet> fleet;
  for (std::size_t i = 0; i < shape.setups; ++i) {
    fleet.reset();
    if (coordinator) coordinator->stop();
    const bool last = i + 1 == shape.setups;
    const auto start = Clock::now();
    coordinator = std::make_unique<runtime::Coordinator>(config);
    coordinator->start();
    fleet = std::make_unique<Fleet>(shape, o.seed, last);
    fleet->setUp(*coordinator);
    setup_s.push_back(secondsSince(start));
  }

  fleet->run(after(shape.warmup_s), nullptr, *coordinator);
  const double phase = o.trace ? o.seconds / 2 : o.seconds;
  Window untraced;
  fleet->run(after(phase), &untraced, *coordinator);
  Window traced;
  Tracer& tracer = Tracer::instance();
  if (o.trace) {
    tracer.reset();
    tracer.setEnabled(true);
    fleet->run(after(phase), &traced, *coordinator);
    tracer.setEnabled(false);
  }
  fleet->drain(0.2);
  const std::vector<net::ScheduleEntry> final_schedule = coordinator->scheduleSnapshot();
  coordinator->stop();
  const Fleet::Replay replay = fleet->replayStream();

  r.checkMany(fleet->checkedFrames(), fleet->inconsistentFrames(),
              "schedule frame entries have queue == queueForSize(global bytes)");
  r.checkMany(fleet->crossings(), fleet->unreflected(),
              "threshold crossing reflected in a schedule frame");
  r.check(final_schedule == replay.snapshot,
          "final scheduleSnapshot() equals a standalone ScheduleState fed the same stream");
  r.checkMany(untraced.tick_rounds, untraced.behind_rounds,
              "generator kept up with its schedule (round not behind)");
  r.check(!untraced.lag_p95_s.empty(), "crossings were measured");

  const double cpu_ms = percentile(untraced.cpu_ms_per_round, 50);
  r.end_to_end["setup_s"] = {percentile(setup_s, 50), "s"};
  r.end_to_end["host_ms"] = {cpu_ms, "ms"};
  // Slowdown of a crossing: its report -> schedule lag in units of Δ. The
  // mean and p95 are taken per 1 s slice and the median slice reported, so
  // one host stall does not move the run.
  r.end_to_end["slowdown_avg"] = {percentile(untraced.lag_avg_s, 50) / config.sync_interval,
                                  "ratio"};
  r.end_to_end["slowdown_p95"] = {percentile(untraced.lag_p95_s, 50) / config.sync_interval,
                                  "ratio"};
  const double rounds = static_cast<double>(std::max<std::uint64_t>(untraced.rounds, 1));
  r.detail["coord_cpu_ms_per_round"] = {cpu_ms, "ms"};
  r.detail["coord_lag_avg_ms"] = {mean(untraced.lag_s) * 1e3, "ms"};
  r.detail["coord_lag_p50_ms"] = {percentile(untraced.lag_s, 50) * 1e3, "ms"};
  r.detail["coord_lag_p95_ms"] = {percentile(untraced.lag_s, 95) * 1e3, "ms"};
  r.detail["coord_lag_p99_ms"] = {percentile(untraced.lag_s, 99) * 1e3, "ms"};
  r.detail["lag_samples"] = {static_cast<double>(untraced.lag_s.size()), "count"};
  r.detail["rounds"] = {static_cast<double>(untraced.rounds), "count"};
  r.detail["changed_entries_per_round"] = {static_cast<double>(untraced.changed_entries) / rounds,
                                           "count"};
  r.detail["live_coflows"] = {static_cast<double>(final_schedule.size()), "count"};
  r.detail["loadgen_late_ms_p99"] = {untraced.late.percentileMs(99), "ms"};
  r.detail["host_stall_rounds"] = {static_cast<double>(untraced.stall_rounds), "count"};
  r.detail["loadgen_cpu_ms_per_round"] = {untraced.gen_cpu_s * 1e3 / rounds, "ms"};

  if (!o.trace) return r;

  r.checkMany(traced.tick_rounds, traced.behind_rounds,
              "generator kept up with its schedule while traced");
  r.checkMany(fleet->reencoded(), fleet->reencodeMismatches(),
              "re-encoded schedule frame equals the received bytes");
  r.check(tracer.idle() && tracer.selfSumNs() == tracer.rootTotalNs(),
          "layer self times sum to their enclosing loadgen.pass spans");
  const double trounds = static_cast<double>(std::max<std::uint64_t>(traced.rounds, 1));
  auto meanUs = [&](const char* name) {
    const Tracer::Aggregate* agg = tracer.find(name);
    return agg != nullptr ? agg->meanMicros() : 0.0;
  };
  auto& L = r.per_layer;
  L["coord.busy_p50_ms"] = {percentile(traced.busy_ms, 50), "ms"};
  L["coord.busy_p99_ms"] = {percentile(traced.busy_ms, 99), "ms"};
  L["coord.delta_frames"] = {static_cast<double>(traced.delta_frames), "count"};
  L["coord.snapshot_frames"] = {static_cast<double>(traced.snapshot_frames), "count"};
  L["coord.entries_per_delta"] = {
      traced.delta_frames > 0
          ? static_cast<double>(traced.delta_entries) / static_cast<double>(traced.delta_frames)
          : 0.0,
      "count"};
  L["coord.down_bytes_per_round"] = {static_cast<double>(traced.bytes_in) / trounds, "B"};
  L["coord.up_bytes_per_round"] = {static_cast<double>(traced.bytes_out) / trounds, "B"};
  L["state.apply_ns_per_entry"] = {replay.apply_ns_per_entry, "ns"};
  L["state.build_delta_us"] = {replay.build_delta_us, "us"};
  L["state.snapshot_us"] = {replay.snapshot_us, "us"};
  L["net.encode_delta_us"] = {meanUs("net.encode_delta"), "us"};
  L["net.encode_snapshot_us"] = {meanUs("net.encode_snapshot"), "us"};
  L["net.decode_delta_us"] = {meanUs("net.decode_delta"), "us"};
  L["net.decode_snapshot_us"] = {meanUs("net.decode_snapshot"), "us"};
  L["net.encode_report_us"] = {meanUs("net.encode_report"), "us"};
  L["net.frames_in"] = {static_cast<double>(traced.frames_in), "count"};
  L["net.frames_out"] = {static_cast<double>(traced.frames_out), "count"};
  L["loadgen.cpu_ms_per_round"] = {traced.gen_cpu_s * 1e3 / trounds, "ms"};
  L["loadgen.late_ms_p99"] = {traced.late.percentileMs(99), "ms"};
  const double traced_cpu = percentile(traced.cpu_ms_per_round, 50);
  L["trace.overhead_ms"] = {traced_cpu - cpu_ms, "ms"};
  L["trace.overhead_ratio"] = {cpu_ms > 0 ? (traced_cpu - cpu_ms) / cpu_ms : 0.0, "ratio"};
  L["trace.spans"] = {static_cast<double>(tracer.spanCount()), "count"};
  return r;
}

}  // namespace perfbench
