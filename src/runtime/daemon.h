// Aalo daemon: the per-machine agent (Figure 2).
//
// The data path (ThrottledWriter) reports bytes here; every Δ the daemon
// forwards its local observations to the coordinator and receives the
// global schedule. Between updates it makes local decisions: coflows it
// has never seen in a schedule are treated as highest priority (new ==
// likely small, §3.2).
//
// Delta-coded data path: reports carry only the coflows whose local bytes
// changed since the last report (absolute values, so each report is
// self-sufficient per coflow), with periodic full resyncs; schedule
// updates arrive as kScheduleDelta frames chained by epoch, each
// carrying the schedule's digest — a detected gap or digest mismatch
// triggers a kSnapshotRequest and a forced full report.
//
// Fault tolerance (§3.2 hardening):
//  * Reconnects use exponential backoff with decorrelated jitter (seeded,
//    so failure scenarios replay deterministically); absolute local sizes
//    are kept across the outage and re-teach a restarted coordinator.
//  * Stale-schedule degradation — if no broadcast arrives for M·Δ on a
//    still-open socket (a one-way link or hung coordinator), the daemon
//    flips to local-only mode: connected() turns false, queueOf()/isOn()
//    return their local defaults (queue 0 / ON) and ThrottledWriter
//    degrades to unthrottled TCP.
//  * Duplicated or reordered schedule broadcasts are ignored: within one
//    connection only strictly newer epochs are applied (ScheduleMirror
//    holds the stream rules, shared with the warm standby).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coflow/ids.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/metrics.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "runtime/robustness.h"
#include "runtime/schedule_mirror.h"
#include "sched/dclas.h"
#include "util/rng.h"
#include "util/units.h"

namespace aalo::runtime {

/// The default ceiling of a daemon's reconnect backoff: the longest a
/// daemon at default settings waits between dials. A restarted
/// coordinator holds restored daemon ids this long past its liveness
/// budget, so their daemons can redial before the ids are dropped.
inline constexpr util::Seconds kDefaultReconnectMaxBackoff = 2.0;

struct DaemonConfig {
  std::uint16_t coordinator_port = 0;
  /// Ordered coordinator endpoints (primary first, then standbys), all on
  /// 127.0.0.1. Empty = just {coordinator_port}. The daemon dials them
  /// round-robin: a failed dial, a connection that dies before syncing, or
  /// a stale-schedule transition rotates to the next endpoint — so when a
  /// promoted standby is broadcasting, every daemon finds it within its
  /// reconnect/staleness budget.
  std::vector<std::uint16_t> coordinator_ports;
  std::uint64_t daemon_id = 0;
  util::Seconds sync_interval = 0.010;
  /// Queue weight for 0-based queue q given K queues (K - q, as in §7.1).
  int num_queues = 10;
  /// Local uplink capacity divided among this machine's coflows.
  util::Rate uplink_capacity = util::kGbps;
  /// §3.2 fault tolerance: base reconnect delay after losing the
  /// coordinator (locally observed sizes are kept across the outage).
  /// 0 disables reconnection.
  util::Seconds reconnect_interval = 0.2;
  /// Backoff ceiling: retry delays grow from reconnect_interval with
  /// decorrelated jitter up to this value.
  util::Seconds reconnect_max_backoff = kDefaultReconnectMaxBackoff;
  /// Flip to local-only mode after this many sync intervals without a
  /// schedule broadcast on an open socket. 0 disables stale detection.
  int stale_after_intervals = 25;
  /// Thresholds used to discretize *locally* attained service when no
  /// global information exists for a coflow — degraded mode, or the first
  /// rounds after a coordinator restart. Mirror the coordinator's D-CLAS
  /// config. Local bytes lower-bound the global size, so the local queue
  /// never promotes a coflow above what the global schedule would assign.
  sched::DClasConfig dclas;
  /// Delta reports: every report carries only the coflows whose local
  /// bytes changed since the previous one (absolute values), with a full
  /// absolute resync every this many reports — the §3.2 safety net that
  /// re-teaches a restarted coordinator. Forced resyncs (reconnect, epoch
  /// gap) happen regardless. 0 = forced resyncs only.
  int resync_intervals = 10;
  /// Backpressure: skip a size report while more than this many bytes sit
  /// unsent in the connection's send queue (the coordinator stopped
  /// draining). Skipped coflows stay dirty, and reports carry absolute
  /// sizes, so the next report that does go out is lossless. The
  /// connection's hard overflow limit is set to 4x this. 0 = never shed.
  std::size_t send_queue_max = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start();
  /// Idempotent and safe under concurrent callers.
  void stop();

  /// Thread-safe, called by the data path: `delta` more bytes of `id`
  /// left this machine.
  void reportBytes(coflow::CoflowId id, util::Bytes delta);

  /// Thread-safe: a writer for `id` became active/inactive on this
  /// machine (used for local rate assignment).
  void writerActive(coflow::CoflowId id, bool active);

  /// Queue of a coflow per the last global schedule. When no schedule
  /// entry exists — a never-scheduled coflow, or *any* coflow while
  /// degraded (disconnected or stale schedule) — falls back to local
  /// D-CLAS over locally attained bytes (§3.2): genuinely new coflows get
  /// the highest-priority queue (0), known ones keep at most the priority
  /// their local size justifies, so a coflow is never promoted above a
  /// queue it already left.
  int queueOf(coflow::CoflowId id) const;

  /// §6.2 ON/OFF signal from the last schedule; unknown coflows are ON
  /// (new == likely small, scheduled locally), and while degraded every
  /// coflow is ON — a dead schedule must not gate anyone.
  bool isOn(coflow::CoflowId id) const;

  /// D-CLAS rate (bytes/s) the local uplink grants `id` right now:
  /// weighted share across queues, FIFO within the queue among this
  /// machine's active coflows. Infinity while degraded (plain TCP).
  util::Rate rateFor(coflow::CoflowId id) const;

  std::uint64_t lastEpoch() const { return last_epoch_.load(std::memory_order_relaxed); }
  /// True only when the socket is up AND the schedule is fresh: a hung
  /// coordinator (no broadcast for M·Δ) reads as disconnected, which is
  /// exactly what ThrottledWriter's degrade-to-unthrottled path needs.
  bool connected() const {
    return socket_connected_.load(std::memory_order_relaxed) &&
           schedule_fresh_.load(std::memory_order_relaxed);
  }

  const RobustnessStats& stats() const { return stats_; }

  /// Current reconnect delay (test/diagnostic): stays at
  /// reconnect_interval after a connection that reached a synced schedule,
  /// grows with decorrelated jitter while dials fail *or* connections die
  /// before the first schedule applies (crash-looping coordinator).
  double currentReconnectBackoff() const {
    return next_backoff_.load(std::memory_order_relaxed);
  }
  /// Index into the endpoint list the next dial will use (mod size).
  std::size_t endpointIndex() const {
    return endpoint_index_.load(std::memory_order_relaxed);
  }
  /// Highest coordinator fencing epoch ever seen; broadcasts below it are
  /// from a deposed primary and are ignored outright.
  std::uint64_t fenceSeen() const;

  /// Observability registry: robustness counters (`aalo_daemon_*`), wire
  /// counters, encode-scratch reuse, lifecycle gauges. Rendering is
  /// thread-safe, so callers may dump it from any thread.
  const obs::Registry& metrics() const { return metrics_; }

 private:
  void sendHello();
  void sendSizeReport();
  void checkScheduleFreshness();
  void scheduleTick();
  void scheduleReconnect();
  bool tryConnect();
  /// Decorrelated-jitter growth toward reconnect_max_backoff.
  void growBackoff();
  /// Advance to the next coordinator endpoint (no-op with one endpoint).
  void rotateEndpoint();
  /// Applies a schedule frame through schedule_; after an applied one:
  /// prune, publish the epoch, leave local-only mode.
  void onMessage(net::Buffer& payload);
  /// The gap path: a kSnapshotRequest plus a forced full report.
  void requestSnapshot(std::uint64_t applied_epoch);
  /// GC of local accounting for completed coflows, in O(frame removals +
  /// local coflows): the frame's removed_scratch_ are pruned when
  /// `removals_seen` (see onMessage). Needs mutex_ held.
  void pruneCompletedLocked(bool removals_seen);
  /// Local D-CLAS: discretize locally attained bytes. Needs mutex_ held.
  int localQueueLocked(coflow::CoflowId id) const;
  /// queueOf's rule. Needs mutex_ held.
  int queueLocked(coflow::CoflowId id) const;
  void registerMetrics();

  DaemonConfig config_;
  std::vector<util::Bytes> thresholds_;  ///< From config_.dclas, immutable.
  net::EventLoop loop_;
  std::unique_ptr<net::Connection> connection_;
  std::thread thread_;
  std::mutex lifecycle_mutex_;
  std::atomic<bool> running_{false};
  std::atomic<bool> socket_connected_{false};
  std::atomic<bool> schedule_fresh_{false};
  std::atomic<std::uint64_t> last_epoch_{0};

  // Loop-thread-only state (start() touches it before the thread exists;
  // the atomics among them exist only for cross-thread test accessors).
  util::Rng backoff_rng_;
  std::atomic<double> next_backoff_{0};
  /// Ordered endpoint list resolved from the config (never empty).
  std::vector<std::uint16_t> endpoints_;
  std::atomic<std::size_t> endpoint_index_{0};
  /// Whether the current connection has applied at least one schedule;
  /// only then is the reconnect backoff reset to its base (a dial that
  /// succeeds but dies unsynced keeps backing off).
  bool synced_since_connect_ = false;
  net::EventLoop::Clock::time_point last_broadcast_{};
  /// Next size report must carry every coflow absolutely: set on (re)
  /// connect and on an epoch gap, so a restarted coordinator re-learns
  /// within one report (§3.2).
  bool force_full_report_ = true;
  int reports_since_resync_ = 0;
  /// Ticks since a report actually went out (keepalive suppression).
  int ticks_since_report_ = 0;
  /// Reusable encode buffer for outgoing reports/requests.
  net::Buffer encode_scratch_;
  /// Every received frame is decoded into this one message (loop thread).
  net::Message inbound_;
  /// Coflows the last applied frame removed from the schedule.
  std::vector<coflow::CoflowId> removed_scratch_;
  /// Coflows removed from the schedule on this connection while a local
  /// writer still had them open: pruned once their writer ends.
  std::unordered_set<coflow::CoflowId> removed_writing_;
  /// Locally accounted coflows never seen in a schedule: consecutive
  /// applied schedules that omitted them. At the budget below they are
  /// pruned — they were unregistered before their first schedule arrived.
  std::unordered_map<coflow::CoflowId, int> missed_schedules_;
  static constexpr int kMissedSchedulesBeforePrune = 10;

  mutable std::mutex mutex_;
  std::unordered_map<coflow::CoflowId, util::Bytes> local_sent_;
  /// Coflows whose local_sent_ changed since the last report (delta
  /// reports carry only these, still as absolute values).
  std::unordered_set<coflow::CoflowId> report_dirty_;
  std::unordered_map<coflow::CoflowId, int> active_writers_;
  /// The applied schedule, this connection's epoch chain and the fence
  /// high-water across all connections.
  ScheduleMirror schedule_;

  RobustnessStats stats_;

  // Observability (registered once in the constructor).
  obs::Registry metrics_;
  net::ConnMetrics conn_metrics_;
  obs::Counter* scratch_reuse_ = nullptr;
};

}  // namespace aalo::runtime
