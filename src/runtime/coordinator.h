// Aalo coordinator (Figure 2): aggregates locally observed coflow sizes
// from daemons every Δ interval, assigns D-CLAS queues from the global
// sizes, and broadcasts the coordinated schedule to every daemon.
//
// The number of coordination messages is linear in the number of daemons
// and independent of the number of coflows (§3.2): one report in and one
// broadcast out per daemon per round.
//
// Delta-coded data path: size reports are folded into an incrementally
// maintained ScheduleState as they arrive, and each round broadcasts only
// what changed (kScheduleDelta) — an empty heartbeat when nothing did.
// Every delta carries the schedule's digest, so a daemon whose copy
// silently diverged asks for a snapshot within one frame; full snapshots
// go out per peer only on connect, on request and after backpressure. The
// broadcast payload is encoded once and fanned out zero-copy.
//
// Coalesced report ingress: the schedule is recomputed only once per Δ,
// so daemon connections are not read on every wake-up. A daemon's
// connection switches to coalesced reads at its Hello; readable daemons
// are read together in an ingress pass at most once per slot of
// Δ/kIngressSlots (at once when the last pass is older than a slot), and
// every tick runs a final pass before it evicts, collects and broadcasts,
// so a report that has arrived always makes the next broadcast. Client
// RPCs and subscribed standbys stay readiness-driven.
//
// Fault tolerance (§3.2 hardening):
//  * Liveness eviction — a daemon whose reports stop for N·Δ is dropped
//    (connection closed, its reported sizes discarded) so a hung machine
//    cannot pin coflows in low-priority queues forever.
//  * One-way-link detection — daemons echo the last schedule epoch they
//    applied in every report; a daemon that keeps reporting but whose echo
//    never advances has a dead receive path and is evicted the same way.
//  * Tombstone GC — explicit unregisters are tombstoned so completed
//    coflows cannot resurface from stale reports; a tombstone is collected
//    once no live daemon has mentioned the coflow for M·Δ.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <string>

#include "coflow/id_generator.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/metrics.h"
#include "obs/metrics.h"
#include "runtime/checkpoint.h"
#include "runtime/robustness.h"
#include "runtime/schedule_mirror.h"
#include "runtime/schedule_state.h"
#include "sched/dclas.h"

namespace aalo::runtime {

struct CoordinatorConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
  std::uint16_t port = 0;
  /// Coordination interval Δ (the paper suggests O(10) ms).
  util::Seconds sync_interval = 0.010;
  /// Queue structure used to discretize global sizes.
  sched::DClasConfig dclas;
  /// §6.2 ON/OFF signals: at most this many coflows are switched ON per
  /// schedule (in global priority order); the rest are gated to avoid
  /// receiver-side contention. 0 = everything ON.
  std::size_t max_on_coflows = 0;
  /// Evict a daemon whose size reports have stopped for this many sync
  /// intervals (N·Δ). 0 disables liveness eviction.
  int liveness_timeout_intervals = 10;
  /// Evict a daemon whose echoed schedule epoch has not advanced for this
  /// many sync intervals although reports keep arriving (one-way link).
  /// 0 disables the check.
  int one_way_timeout_intervals = 40;
  /// Collect an unregister tombstone after no report has mentioned the
  /// coflow for this many sync intervals. 0 keeps tombstones forever.
  int tombstone_gc_intervals = 50;
  /// High availability: when non-zero, start as a warm standby of the
  /// primary coordinator at 127.0.0.1:<standby_of>. The standby subscribes
  /// to the primary's broadcast stream (kFollowerSubscribe) and mirrors it
  /// like a daemon would; it sends no broadcasts of its own until it
  /// promotes. 0 = start as the primary.
  std::uint16_t standby_of = 0;
  /// Standby: promote to primary after this many sync intervals without a
  /// broadcast from the primary. The promoted coordinator broadcasts with
  /// a fencing epoch above everything the primary ever used, so daemons
  /// ignore the deposed primary should it come back.
  int takeover_intervals = 10;
  /// Checkpoint/restore: when non-empty, ScheduleState snapshots + a delta
  /// journal are kept in this directory; a restarted primary resumes from
  /// them (bit-identical schedule, no re-teach round) instead of starting
  /// blind. Empty = disabled.
  std::string checkpoint_dir;
  util::Seconds checkpoint_interval = 1.0;
  /// Overload backpressure: a peer with more than this many unsent bytes
  /// queued is skipped this round (its broadcast is coalesced into a full
  /// snapshot once it drains), so one blackholed daemon cannot stall or
  /// bloat the fan-out. The connection hard-closes at 4x this (see
  /// net::Connection::setSendQueueLimit). 0 = unlimited.
  std::size_t send_queue_max = 4 * 1024 * 1024;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorConfig config);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds, starts the loop thread, begins Δ ticks.
  void start();
  /// Idempotent and safe under concurrent callers: every caller returns
  /// only after shutdown has completed.
  void stop();

  std::uint16_t port() const;
  /// Number of completed coordination rounds (broadcasts).
  std::uint64_t epoch() const;
  /// Fencing epoch of this coordinator incarnation (grows on promotion).
  std::uint64_t fence() const;
  /// True when this coordinator broadcasts (primary from the start, or a
  /// standby that has promoted).
  bool isPrimary() const;
  /// Daemons currently connected (said Hello).
  std::size_t daemonCount() const;
  /// Coflows currently registered.
  std::size_t registeredCoflows() const;
  /// Unregister tombstones currently held (pre-GC).
  std::size_t tombstoneCount() const;

  const RobustnessStats& stats() const;

  /// Full observability registry: robustness counters, wire counters,
  /// round-duration / report-apply histograms, lifecycle gauges.
  /// Instruments are registered at construction; rendering is thread-safe.
  const obs::Registry& metrics() const;

  /// Test/diagnostic accessor: the coordinator's current global coflow
  /// sizes. Thread-safe (hops onto the loop thread while running).
  std::unordered_map<coflow::CoflowId, double> globalSizes();

  /// Test/diagnostic accessor: the full current schedule exactly as a
  /// kScheduleUpdate would carry it (sorted, ON gate applied). Thread-safe
  /// (hops onto the loop thread while running). Bit-identical across a
  /// checkpoint restore or an up-to-date standby promotion.
  std::vector<net::ScheduleEntry> scheduleSnapshot();

  /// Test/diagnostic accessor: the coflows a standby's mirror of the
  /// primary's stream holds, which seed its schedule on promotion (empty
  /// on a primary that never followed). Thread-safe (hops onto the loop
  /// thread while running).
  std::unordered_set<coflow::CoflowId> mirroredCoflows();

 private:
  using TimePoint = net::EventLoop::Clock::time_point;

  struct Peer {
    std::unique_ptr<net::Connection> connection;
    std::uint64_t daemon_id = 0;
    bool is_daemon = false;
    /// A subscribed warm standby: receives every broadcast like a daemon
    /// but sends no reports, so it is exempt from liveness eviction.
    bool is_follower = false;
    TimePoint last_report{};        ///< Last Hello or size report.
    std::uint64_t echoed_epoch = 0; ///< Highest epoch echoed in a report.
    TimePoint last_echo_advance{};  ///< When echoed_epoch last grew.
    /// Next broadcast to this peer must be a full snapshot: set at
    /// connect (no base state to delta from), on kSnapshotRequest (an
    /// epoch gap or a digest mismatch) and after backpressure.
    bool needs_snapshot = true;
  };

  void onAcceptable();
  void onMessage(std::uint64_t peer_key, net::Buffer& payload);
  /// A coalesced daemon connection's input is ready: read at once when
  /// the pass is due, else queue it for the pass timer.
  void onDaemonReadable(std::uint64_t peer_key);
  /// When the next ingress pass may run: a slot after the last one, or a
  /// quarter slot before the next tick if that comes first.
  TimePoint ingressDue() const;
  /// Arms the pass timer for ingressDue() when daemons wait.
  void armIngress();
  /// Reads every waiting daemon connection (no-op when none waits) and
  /// times the pass into report_apply_ if it applied a size report.
  void runIngressPass();
  void dropPeer(std::uint64_t peer_key);
  void evictStalePeers(TimePoint now);
  void collectTombstones(TimePoint now);
  void broadcastSchedule();
  void scheduleTick();
  void registerMetrics();
  // --- checkpoint/restore (primary only) ---------------------------------
  void restoreFromCheckpoint();
  void writeCheckpointSnapshot(TimePoint now);
  // --- warm standby ------------------------------------------------------
  void scheduleFollowerTick();
  void connectUpstream();
  void onUpstreamMessage(net::Buffer& payload);
  void promote();

  CoordinatorConfig config_;
  net::EventLoop loop_;
  net::Fd listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::mutex lifecycle_mutex_;

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, Peer> peers_;
  std::uint64_t next_peer_key_ = 1;
  /// Incrementally maintained global sizes + queue assignments + sorted
  /// schedule; also stores the raw per-daemon reports (checkpoints write
  /// those) and the tombstones of explicit unregisters: daemons keep reporting absolute local sizes for
  /// completed coflows, and those must not resurface in schedules. A
  /// tombstone is GC'd by collectTombstones once every live daemon has
  /// stopped mentioning the coflow.
  ScheduleState state_;
  coflow::CoflowIdGenerator id_generator_;
  /// Broadcast scratch: schedule vectors and encode buffers reused across
  /// rounds. The buffers are shared_ptr so N peers write the same bytes
  /// (zero-copy fan-out); a buffer still referenced by a slow peer's send
  /// queue is left alone and a fresh one is allocated (use_count check).
  std::vector<net::ScheduleEntry> entries_scratch_;
  std::vector<coflow::CoflowId> removals_scratch_;
  std::shared_ptr<net::Buffer> delta_scratch_;
  std::shared_ptr<net::Buffer> snapshot_scratch_;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> daemon_count_{0};
  std::atomic<std::size_t> registered_count_{0};
  std::atomic<std::size_t> tombstone_count_{0};
  std::atomic<bool> running_{false};
  /// Fencing epoch of this incarnation: 1 for a fresh primary, restored
  /// from the checkpoint, or primary's-highest + 1 after a promotion.
  std::atomic<std::uint64_t> fence_{1};
  /// True from start() until promote() when configured as a standby.
  std::atomic<bool> standby_active_{false};

  // Checkpoint (loop-thread-only after start()).
  std::unique_ptr<Checkpoint> checkpoint_;
  TimePoint last_checkpoint_{};
  /// Scratch for journaling only the tombstone-filtered, actually-applied
  /// slice of each size report.
  net::Message report_journal_scratch_;

  // Report ingress (loop-thread-only). Every received frame, from peers
  // and from the primary alike, is decoded into inbound_, whose vectors
  // keep their capacity.
  net::Message inbound_;
  /// Daemons whose input is ready but unread, in readiness order; the
  /// next ingress pass reads them.
  std::vector<std::uint64_t> readable_;
  TimePoint last_ingress_{};  ///< Start of the last pass that read.
  bool in_pass_ = false;       ///< An ingress pass is delivering frames.
  bool pass_reports_ = false;  ///< The running pass applied a size report.
  TimePoint next_tick_{};     ///< Due time of the next tick ({} on a standby).
  bool ingress_armed_ = false;

  // Warm-standby state (loop-thread-only).
  std::unique_ptr<net::Connection> upstream_;
  /// The primary's broadcast stream, applied by the daemons' rules (a
  /// gap or a digest mismatch asks for a snapshot); its schedule, epoch
  /// and fence seed promote().
  ScheduleMirror upstream_schedule_;
  /// Coflows the stream removed (delta removals / snapshot disappearance):
  /// tombstoned at promotion so stale reports cannot resurrect them.
  std::unordered_set<coflow::CoflowId> follower_removed_;
  TimePoint last_primary_contact_{};
  TimePoint standby_started_{};
  RobustnessStats stats_;

  // Observability (registered once in the constructor; histogram/counter
  // pointers stay valid — registry entries never move).
  obs::Registry metrics_;
  net::ConnMetrics conn_metrics_;
  obs::LatencyHistogram* round_duration_ = nullptr;
  obs::LatencyHistogram* report_apply_ = nullptr;
  obs::Counter* broadcast_bytes_ = nullptr;
  obs::Counter* scratch_reuse_ = nullptr;
  obs::Counter* scratch_alloc_ = nullptr;
};

}  // namespace aalo::runtime
