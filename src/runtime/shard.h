// Sharded coordination plane (ROADMAP open item 1: 100k-daemon scale).
//
// The single-threaded coordinator tops out where one epoll loop must
// decode every daemon's report, fold it into one ScheduleState, and fan
// the broadcast out over every connection. This module partitions that
// work across N worker threads:
//
//  * Coflows are hash-partitioned by CoflowId into N ScheduleState shards
//    (shardOf). Global sizes, queue assignment, and delta tracking for a
//    coflow live in exactly one shard.
//  * Each worker thread owns one shard plus a subset of the daemon
//    connections on its own net::EventLoop (round-robin at accept).
//    Report decode, tombstone filtering, delta build, and fan-out writes
//    all run shard-parallel with no shared mutable hot state; sizes for
//    coflows owned by another shard are batched and handed over with
//    EventLoop::post (the only cross-thread entry point), preserving
//    per-source FIFO order.
//  * The only cross-shard step is the broadcast tick: a lock-light epoch
//    barrier (std::barrier). Each worker drains its loop up to the tick,
//    builds its shard's sorted sub-delta, and arrives; the completion
//    function — running while every worker is quiescent — k-way merges
//    the per-shard (queue, FIFO-id)-sorted entries into the global wire
//    delta, applies the global §6.2 ON/OFF gate, encodes it once, absorbs
//    the shards' journal batches in shard order, and writes the epoch
//    mark. After release each worker fans the shared encoded buffer out
//    to its own peers zero-copy.
//
// Queue thresholds are applied per shard from *global* coflow sizes (all
// of a coflow's reports land in its owning shard), so the merged schedule
// is bit-identical to the single-threaded coordinator, which remains the
// `--shards 1` oracle. ShardSet holds the state + merge machinery on its
// own so the equivalence fuzz can drive it deterministically without
// threads or sockets.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coflow/id_generator.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/metrics.h"
#include "obs/metrics.h"
#include "runtime/checkpoint.h"
#include "runtime/coordinator.h"
#include "runtime/robustness.h"
#include "runtime/schedule_state.h"

namespace aalo::runtime {

/// Which of `shards` owns `id`. Uses the deterministic CoflowId hash, so
/// the partition is stable across runs, restarts, and processes.
inline std::size_t shardOf(const coflow::CoflowId& id, std::size_t shards) {
  return std::hash<coflow::CoflowId>{}(id) % shards;
}

/// N hash-partitioned ScheduleStates plus the cross-shard merge that
/// reassembles the global wire schedule. Not thread-safe as a whole; the
/// intended discipline is: each worker mutates only its own shard(s)
/// (including buildShardDelta), and mergeDelta()/snapshotEntries() run
/// only while every shard is quiescent (the epoch barrier provides both
/// the mutual exclusion and the memory ordering). Single-threaded callers
/// (equivalence fuzz, checkpoint restore) may use everything directly.
class ShardSet {
 public:
  /// Sub-states are always built with max_on = 0: the §6.2 ON/OFF gate is
  /// a *global* top-k and is applied at merge time from `max_on`.
  ShardSet(std::size_t shards, std::vector<util::Bytes> thresholds,
           std::size_t max_on);

  std::size_t shardCount() const { return shards_.size(); }
  std::size_t shardFor(const coflow::CoflowId& id) const {
    return shardOf(id, shards_.size());
  }
  ScheduleState& shard(std::size_t s) { return shards_[s].state; }
  const ScheduleState& shard(std::size_t s) const { return shards_[s].state; }

  // Routing conveniences for single-threaded callers.
  void registerCoflow(const coflow::CoflowId& id) {
    shard(shardFor(id)).registerCoflow(id);
  }
  void unregisterCoflow(const coflow::CoflowId& id) {
    shard(shardFor(id)).unregisterCoflow(id);
  }
  void applySize(std::uint64_t daemon_id, const coflow::CoflowId& id,
                 double bytes) {
    shard(shardFor(id)).applySize(daemon_id, id, bytes);
  }
  void dropDaemon(std::uint64_t daemon_id) {
    for (auto& s : shards_) s.state.dropDaemon(daemon_id);
  }

  std::size_t registeredCount() const;
  std::size_t scheduledCount() const;
  std::size_t tombstoneCount() const;
  std::unordered_map<coflow::CoflowId, double> globalSizes() const;

  /// Stage shard `s`'s sorted sub-delta (safe to call concurrently for
  /// distinct `s` — each writes only its own scratch).
  void buildShardDelta(std::size_t s);
  /// K-way merges the staged sub-deltas into the global wire delta and
  /// applies the global ON/OFF gate. Requires all shards quiescent.
  /// Returns false when the merged delta is empty (heartbeat round).
  bool mergeDelta(std::vector<net::ScheduleEntry>& entries,
                  std::vector<coflow::CoflowId>& removals);
  /// Convenience: buildShardDelta on every shard, then mergeDelta.
  bool buildDelta(std::vector<net::ScheduleEntry>& entries,
                  std::vector<coflow::CoflowId>& removals);

  /// Merged full schedule with the positional ON gate — bit-identical to
  /// what a single ScheduleState::snapshotEntries over the same inputs
  /// produces. Requires all shards quiescent.
  void snapshotEntries(std::vector<net::ScheduleEntry>& out) const;

  /// All shard states, for the merged checkpoint snapshot.
  std::vector<const ScheduleState*> states() const;

 private:
  struct PerShard {
    ScheduleState state;
    std::vector<net::ScheduleEntry> delta_entries;
    std::vector<coflow::CoflowId> delta_removals;
    explicit PerShard(ScheduleState s) : state(std::move(s)) {}
  };

  void applyOnGate(std::vector<net::ScheduleEntry>& entries);

  std::size_t max_on_ = 0;
  std::vector<PerShard> shards_;
  /// ON membership the merged delta chain last announced (max_on_ > 0).
  std::unordered_set<coflow::CoflowId> prev_on_;
};

/// Multi-threaded coordinator: CoordinatorConfig::shards worker threads,
/// each owning one ShardSet shard + its connection subset. Public surface
/// mirrors Coordinator; runtime::Coordinator delegates here when
/// config.shards > 1, so callers never name this type directly.
class ShardedCoordinator {
 public:
  explicit ShardedCoordinator(CoordinatorConfig config);
  ~ShardedCoordinator();
  ShardedCoordinator(const ShardedCoordinator&) = delete;
  ShardedCoordinator& operator=(const ShardedCoordinator&) = delete;

  void start();
  void stop();

  std::uint16_t port() const { return port_; }
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  std::uint64_t fence() const { return fence_.load(std::memory_order_relaxed); }
  bool isPrimary() const {
    return !standby_active_.load(std::memory_order_relaxed);
  }
  std::size_t daemonCount() const {
    return daemon_count_.load(std::memory_order_relaxed);
  }
  std::size_t registeredCoflows() const {
    return registered_count_.load(std::memory_order_relaxed);
  }
  std::size_t tombstoneCount() const {
    return tombstone_count_.load(std::memory_order_relaxed);
  }

  const RobustnessStats& stats() const { return stats_; }
  const obs::Registry& metrics() const { return metrics_; }

  std::unordered_map<coflow::CoflowId, double> globalSizes();
  std::vector<net::ScheduleEntry> scheduleSnapshot();

 private:
  using TimePoint = net::EventLoop::Clock::time_point;

  struct Peer {
    std::unique_ptr<net::Connection> connection;
    std::uint64_t daemon_id = 0;
    bool is_daemon = false;
    bool is_follower = false;
    TimePoint last_report{};
    std::uint64_t echoed_epoch = 0;
    TimePoint last_echo_advance{};
    bool needs_snapshot = true;
    int frames_since_snapshot = 0;
  };

  /// One worker: an event loop + thread owning one shard (its schedule
  /// state and tombstones), its connections, and journal staging. Worker 0
  /// is the leader: it also owns the listener, the tick timer, the
  /// checkpoint, and (in standby mode) the upstream mirror.
  struct Worker {
    net::EventLoop loop;
    std::thread thread;
    std::unordered_map<std::uint64_t, Peer> peers;
    std::uint64_t next_peer_key = 1;
    /// Journal records staged at apply time, absorbed at the barrier.
    JournalBatch journal;
    /// Per-target batches for routing report sizes to owning shards.
    std::vector<std::vector<net::CoflowSize>> route_scratch;
    net::Message report_journal_scratch;
    std::atomic<std::size_t> daemon_peers{0};
    std::atomic<std::size_t> peer_count{0};
    /// Set by the worker before arriving at the barrier: one of my peers
    /// will want a full snapshot this round, so the completion must
    /// encode one.
    bool wants_snapshot_round = false;
    net::ConnMetrics conn_metrics;
    obs::Counter* reports_applied = nullptr;
  };

  struct BarrierCompletion {
    ShardedCoordinator* self;
    void operator()() noexcept { self->onBarrierComplete(); }
  };

  Worker& leader() { return *workers_[0]; }

  void onAcceptable();
  void adoptConnection(std::size_t shard, net::Fd fd);
  void onMessage(std::size_t shard, std::uint64_t peer_key,
                 net::Buffer& payload);
  void handleSizeReport(std::size_t shard, Peer& peer,
                        const net::Message& message, TimePoint now);
  /// Tombstone-filter + apply + journal-stage `sizes` (all owned by
  /// `shard`) on that shard's own thread.
  void applyRoutedSizes(std::size_t shard, std::uint64_t daemon_id,
                        std::uint64_t epoch,
                        std::vector<net::CoflowSize> sizes);
  void handleRegister(std::size_t shard, Peer& peer,
                      const net::Message& message);
  /// Registers `id` on its owning shard unless a concurrent unregister
  /// already tombstoned it (the register/unregister pair may arrive on
  /// different workers; the tombstone check makes them commute).
  void applyRegister(std::size_t shard, const coflow::CoflowId& id,
                     std::int64_t next_external);
  void applyUnregister(std::size_t shard, const coflow::CoflowId& id,
                       TimePoint now);
  void dropPeer(std::size_t shard, std::uint64_t peer_key);
  /// Removes the daemon's contributions from shard `shard` and stages the
  /// journal record there (each shard journals its own drop so replay
  /// order matches its own apply order).
  void applyDropDaemon(std::size_t shard, std::uint64_t daemon_id);
  void evictStalePeers(std::size_t shard, TimePoint now);
  void collectTombstones(std::size_t shard, TimePoint now);

  void scheduleTick();
  /// Per-worker barrier participation: evict/GC, stage the sub-delta,
  /// arrive, then fan out the merged buffers to this worker's peers.
  void tickTask(std::size_t shard);
  /// Barrier completion: runs while all workers are parked. Merges,
  /// gates, encodes, journals the epoch mark, refreshes gauges.
  void onBarrierComplete();
  void fanOut(std::size_t shard);

  void registerMetrics();
  void scheduleMetricsDump();
  void dumpMetrics();

  void restoreFromCheckpoint();
  void writeCheckpointSnapshot(TimePoint now);

  // --- warm standby (leader-loop-only until promote) ----------------------
  void scheduleFollowerTick();
  void connectUpstream();
  void onUpstreamMessage(net::Buffer& payload);
  void promote();

  CoordinatorConfig config_;
  std::size_t num_shards_;
  net::Fd listener_;
  std::uint16_t port_ = 0;
  std::mutex lifecycle_mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_accept_shard_ = 0;

  /// The partitioned schedule state. Worker s touches only shard s
  /// outside the barrier; the barrier completion touches all of it.
  ShardSet state_;

  /// Id minting is the one cross-worker mutation outside the barrier:
  /// register RPCs are rare (once per coflow), so a mutex is fine.
  std::mutex id_mutex_;
  coflow::CoflowIdGenerator id_generator_;

  std::barrier<BarrierCompletion> barrier_;

  // Barrier-completion-only state (quiescence-protected, no locks).
  std::vector<net::ScheduleEntry> entries_scratch_;
  std::vector<coflow::CoflowId> removals_scratch_;
  std::shared_ptr<net::Buffer> delta_scratch_;
  std::shared_ptr<net::Buffer> snapshot_scratch_;
  bool round_has_snapshot_ = false;
  bool round_changed_ = false;
  bool force_checkpoint_snapshot_ = false;
  std::chrono::steady_clock::time_point round_start_{};

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> daemon_count_{0};
  std::atomic<std::size_t> registered_count_{0};
  std::atomic<std::size_t> tombstone_count_{0};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> fence_{1};
  std::atomic<bool> standby_active_{false};
  /// Leader-loop-only: cleared first during stop() so no new barrier
  /// round can start while workers wind down.
  bool ticking_ = false;

  std::unique_ptr<Checkpoint> checkpoint_;
  TimePoint last_checkpoint_{};

  // Warm-standby state (leader-loop-only).
  std::unique_ptr<net::Connection> upstream_;
  std::uint64_t primary_fence_ = 1;
  std::uint64_t follower_epoch_ = 0;
  std::unordered_map<coflow::CoflowId, net::ScheduleEntry> mirror_;
  std::unordered_set<coflow::CoflowId> follower_removed_;
  TimePoint last_primary_contact_{};

  RobustnessStats stats_;
  obs::Registry metrics_;
  obs::LatencyHistogram* round_duration_ = nullptr;
  obs::LatencyHistogram* report_apply_ = nullptr;
  obs::Counter* broadcast_bytes_ = nullptr;
  obs::Counter* scratch_reuse_ = nullptr;
  obs::Counter* scratch_alloc_ = nullptr;
};

}  // namespace aalo::runtime
