#include "runtime/shard.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "net/protocol.h"
#include "runtime/metrics.h"
#include "util/log.h"

namespace aalo::runtime {

namespace {

std::chrono::nanoseconds toNanos(util::Seconds s) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9));
}

/// Same wire order the single ScheduleState sorts by: (queue, FIFO id).
bool entryLess(const net::ScheduleEntry& a, const net::ScheduleEntry& b) {
  if (a.queue != b.queue) return a.queue < b.queue;
  return coflow::CoflowIdFifoLess{}(a.id, b.id);
}

/// See Coordinator's takeShared: clear the shared encode buffer in place
/// when no slow peer still references last round's bytes.
net::Buffer& takeShared(std::shared_ptr<net::Buffer>& slot, obs::Counter& reuse,
                        obs::Counter& alloc) {
  if (slot && slot.use_count() == 1) {
    slot->clear();
    reuse.fetch_add(1);
  } else {
    slot = std::make_shared<net::Buffer>();
    alloc.fetch_add(1);
  }
  return *slot;
}

util::Seconds elapsedSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// K-way merge of per-shard (queue, FIFO-id)-sorted entry runs into one
/// globally sorted run. Keys never collide across shards (a coflow lives
/// in exactly one), so the merge is a strict interleave. K is small; a
/// linear head scan beats a heap.
void kWayMergeEntries(const std::vector<const std::vector<net::ScheduleEntry>*>&
                          parts,
                      std::vector<net::ScheduleEntry>& out) {
  std::size_t total = 0;
  for (const auto* p : parts) total += p->size();
  out.clear();
  out.reserve(total);
  std::vector<std::size_t> head(parts.size(), 0);
  for (std::size_t taken = 0; taken < total; ++taken) {
    std::size_t best = parts.size();
    for (std::size_t k = 0; k < parts.size(); ++k) {
      if (head[k] >= parts[k]->size()) continue;
      if (best == parts.size() ||
          entryLess((*parts[k])[head[k]], (*parts[best])[head[best]])) {
        best = k;
      }
    }
    out.push_back((*parts[best])[head[best]++]);
  }
}

void kWayMergeRemovals(
    const std::vector<const std::vector<coflow::CoflowId>*>& parts,
    std::vector<coflow::CoflowId>& out) {
  std::size_t total = 0;
  for (const auto* p : parts) total += p->size();
  out.clear();
  out.reserve(total);
  std::vector<std::size_t> head(parts.size(), 0);
  const coflow::CoflowIdFifoLess less{};
  for (std::size_t taken = 0; taken < total; ++taken) {
    std::size_t best = parts.size();
    for (std::size_t k = 0; k < parts.size(); ++k) {
      if (head[k] >= parts[k]->size()) continue;
      if (best == parts.size() ||
          less((*parts[k])[head[k]], (*parts[best])[head[best]])) {
        best = k;
      }
    }
    out.push_back((*parts[best])[head[best]++]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardSet
// ---------------------------------------------------------------------------

ShardSet::ShardSet(std::size_t shards, std::vector<util::Bytes> thresholds,
                   std::size_t max_on)
    : max_on_(max_on) {
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    // Sub-states never gate: the ON set is a global top-k, applied at
    // merge time so the boundary falls exactly where the single-state
    // oracle puts it.
    shards_.emplace_back(ScheduleState(thresholds, 0));
  }
}

std::size_t ShardSet::registeredCount() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.state.registeredCount();
  return n;
}

std::size_t ShardSet::scheduledCount() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.state.scheduledCount();
  return n;
}

std::size_t ShardSet::tombstoneCount() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.state.tombstoneCount();
  return n;
}

std::unordered_map<coflow::CoflowId, double> ShardSet::globalSizes() const {
  std::unordered_map<coflow::CoflowId, double> out;
  for (const auto& s : shards_) {
    for (const auto& [id, bytes] : s.state.globalSizes()) out.emplace(id, bytes);
  }
  return out;
}

void ShardSet::buildShardDelta(std::size_t s) {
  shards_[s].state.buildDelta(shards_[s].delta_entries,
                              shards_[s].delta_removals);
}

bool ShardSet::mergeDelta(std::vector<net::ScheduleEntry>& entries,
                          std::vector<coflow::CoflowId>& removals) {
  std::vector<const std::vector<net::ScheduleEntry>*> entry_parts;
  std::vector<const std::vector<coflow::CoflowId>*> removal_parts;
  entry_parts.reserve(shards_.size());
  removal_parts.reserve(shards_.size());
  for (const auto& s : shards_) {
    entry_parts.push_back(&s.delta_entries);
    removal_parts.push_back(&s.delta_removals);
  }
  kWayMergeEntries(entry_parts, entries);
  kWayMergeRemovals(removal_parts, removals);
  if (max_on_ > 0) applyOnGate(entries);
  return !entries.empty() || !removals.empty();
}

void ShardSet::applyOnGate(std::vector<net::ScheduleEntry>& entries) {
  // New ON membership: the first max_on_ coflows of the merged global
  // order — a k-way head walk over the shards' permanently sorted sets.
  std::unordered_set<coflow::CoflowId> new_on;
  new_on.reserve(max_on_);
  std::vector<ScheduleState::OrderSet::const_iterator> head;
  std::vector<ScheduleState::OrderSet::const_iterator> end;
  head.reserve(shards_.size());
  end.reserve(shards_.size());
  for (const auto& s : shards_) {
    head.push_back(s.state.order().begin());
    end.push_back(s.state.order().end());
  }
  const ScheduleState::OrderLess less{};
  while (new_on.size() < max_on_) {
    std::size_t best = shards_.size();
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      if (head[k] == end[k]) continue;
      if (best == shards_.size() || less(*head[k], *head[best])) best = k;
    }
    if (best == shards_.size()) break;  // Fewer live coflows than max_on_.
    new_on.insert(head[best]->second);
    ++head[best];
  }

  // Rewrite the ON bit of everything this delta already announces (shard
  // deltas are built gate-blind: their entries all claim ON).
  std::unordered_set<coflow::CoflowId> in_delta;
  in_delta.reserve(entries.size());
  for (auto& e : entries) {
    e.on = new_on.contains(e.id);
    in_delta.insert(e.id);
  }

  // Pure toggles: coflows whose gate membership changed although their
  // own shard had nothing to announce (queue unchanged). Exactly what
  // the single-state refreshOnSet() would have marked dirty.
  bool appended = false;
  for (const auto& id : new_on) {
    if (prev_on_.contains(id) || in_delta.contains(id)) continue;
    auto entry = shards_[shardFor(id)].state.entryFor(id);
    if (!entry) continue;
    entry->on = true;
    entries.push_back(*entry);
    appended = true;
  }
  for (const auto& id : prev_on_) {
    if (new_on.contains(id) || in_delta.contains(id)) continue;
    auto entry = shards_[shardFor(id)].state.entryFor(id);
    if (!entry) continue;  // Unregistered: the removal already says it all.
    entry->on = false;
    entries.push_back(*entry);
    appended = true;
  }
  if (appended) std::sort(entries.begin(), entries.end(), entryLess);
  prev_on_ = std::move(new_on);
}

bool ShardSet::buildDelta(std::vector<net::ScheduleEntry>& entries,
                          std::vector<coflow::CoflowId>& removals) {
  for (std::size_t s = 0; s < shards_.size(); ++s) buildShardDelta(s);
  return mergeDelta(entries, removals);
}

void ShardSet::snapshotEntries(std::vector<net::ScheduleEntry>& out) const {
  std::vector<std::vector<net::ScheduleEntry>> parts(shards_.size());
  std::vector<const std::vector<net::ScheduleEntry>*> part_ptrs;
  part_ptrs.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].state.snapshotEntries(parts[s]);
    part_ptrs.push_back(&parts[s]);
  }
  kWayMergeEntries(part_ptrs, out);
  // Positional gate, exactly as ScheduleState::snapshotEntries applies it.
  if (max_on_ > 0) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i].on = i < max_on_;
  }
}

std::vector<const ScheduleState*> ShardSet::states() const {
  std::vector<const ScheduleState*> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(&s.state);
  return out;
}

// ---------------------------------------------------------------------------
// ShardedCoordinator
// ---------------------------------------------------------------------------

ShardedCoordinator::ShardedCoordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      num_shards_(std::max<std::size_t>(config_.shards, 1)),
      state_(num_shards_, config_.dclas.thresholds(), config_.max_on_coflows),
      barrier_(static_cast<std::ptrdiff_t>(num_shards_),
               BarrierCompletion{this}) {
  workers_.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    workers_.push_back(std::make_unique<Worker>());
    workers_[s]->route_scratch.resize(num_shards_);
  }
  registerMetrics();
}

ShardedCoordinator::~ShardedCoordinator() { stop(); }

void ShardedCoordinator::registerMetrics() {
  registerRobustnessStats(metrics_, stats_, "aalo_coordinator");
  round_duration_ = &metrics_.histogram(
      "aalo_coordinator_round_duration_seconds",
      "Coordination tick (barrier + merge + broadcast)",
      {.first_bound = 1e-6, .num_bounds = 24});
  report_apply_ = &metrics_.histogram("aalo_coordinator_report_apply_seconds",
                                      "Size-report fold into ScheduleState",
                                      {.first_bound = 1e-7, .num_bounds = 24});
  broadcast_bytes_ =
      &metrics_.counter("aalo_coordinator_broadcast_bytes_total",
                        "Schedule fan-out wire bytes incl. headers");
  scratch_reuse_ =
      &metrics_.counter("aalo_coordinator_encode_scratch_reuse_total",
                        "Broadcast encode buffers cleared in place");
  scratch_alloc_ =
      &metrics_.counter("aalo_coordinator_encode_scratch_alloc_total",
                        "Broadcast encode buffers reallocated");
  metrics_.attachGauge("aalo_coordinator_daemons", "Daemons currently connected",
                       [this] { return static_cast<double>(daemonCount()); });
  metrics_.attachGauge(
      "aalo_coordinator_registered_coflows", "Coflows currently registered",
      [this] { return static_cast<double>(registeredCoflows()); });
  metrics_.attachGauge("aalo_coordinator_tombstones",
                       "Unregister tombstones held (pre-GC)",
                       [this] { return static_cast<double>(tombstoneCount()); });
  metrics_.attachGauge("aalo_coordinator_epoch", "Completed coordination rounds",
                       [this] { return static_cast<double>(epoch()); });
  metrics_.attachGauge("aalo_coordinator_shards", "Coordination worker shards",
                       [this] { return static_cast<double>(num_shards_); });
  // Merged wire totals across every shard's connection set, same family
  // names the single-threaded coordinator exposes.
  const auto sum = [this](obs::Counter net::ConnMetrics::* field) {
    return [this, field] {
      std::uint64_t total = 0;
      for (const auto& w : workers_) total += (w->conn_metrics.*field).load();
      return total;
    };
  };
  metrics_.attachCounter("aalo_coordinator_net_frames_in_total",
                         "Frames received (all shards)",
                         sum(&net::ConnMetrics::frames_in));
  metrics_.attachCounter("aalo_coordinator_net_frames_out_total",
                         "Frames queued for send (all shards)",
                         sum(&net::ConnMetrics::frames_out));
  metrics_.attachCounter("aalo_coordinator_net_bytes_in_total",
                         "Wire bytes received (all shards)",
                         sum(&net::ConnMetrics::bytes_in));
  metrics_.attachCounter("aalo_coordinator_net_bytes_out_total",
                         "Wire bytes queued (all shards)",
                         sum(&net::ConnMetrics::bytes_out));
  metrics_.attachCounter("aalo_coordinator_net_overflow_closes_total",
                         "Send-queue overflow closes (all shards)",
                         sum(&net::ConnMetrics::overflow_closes));
  // Per-shard families: wire counters, applied report sizes, peer gauges.
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Worker* w = workers_[s].get();
    const std::string prefix = "aalo_coordinator_shard" + std::to_string(s);
    net::registerConnMetrics(metrics_, w->conn_metrics, prefix);
    w->reports_applied =
        &metrics_.counter(prefix + "_reports_applied_total",
                          "Report sizes folded into this shard's state");
    metrics_.attachGauge(prefix + "_peers", "Connections owned by this shard",
                         [w] {
                           return static_cast<double>(
                               w->peer_count.load(std::memory_order_relaxed));
                         });
    metrics_.attachGauge(prefix + "_daemons", "Daemons owned by this shard",
                         [w] {
                           return static_cast<double>(
                               w->daemon_peers.load(std::memory_order_relaxed));
                         });
  }
}

void ShardedCoordinator::start() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (running_.exchange(true)) return;
  if (!config_.checkpoint_dir.empty()) {
    checkpoint_ = std::make_unique<Checkpoint>(config_.checkpoint_dir);
  }
  const bool standby = config_.standby_of != 0;
  standby_active_.store(standby, std::memory_order_relaxed);
  if (!standby) restoreFromCheckpoint();
  auto [fd, port] = net::listenTcp(config_.port);
  listener_ = std::move(fd);
  port_ = port;
  leader().loop.add(listener_.get(), EPOLLIN,
                    [this](std::uint32_t) { onAcceptable(); });
  if (standby) {
    last_primary_contact_ = net::EventLoop::Clock::now();
    connectUpstream();
    scheduleFollowerTick();
  } else {
    if (checkpoint_) writeCheckpointSnapshot(net::EventLoop::Clock::now());
    ticking_ = true;
    scheduleTick();
  }
  if (!config_.metrics_dump_path.empty() && config_.metrics_dump_interval > 0) {
    scheduleMetricsDump();
  }
  for (auto& w : workers_) {
    Worker* worker = w.get();
    worker->thread = std::thread([worker] { worker->loop.run(); });
  }
  AALO_LOG_INFO << "coordinator (" << num_shards_ << " shards"
                << (standby ? ", standby" : "") << ") listening on 127.0.0.1:"
                << port_;
}

void ShardedCoordinator::stop() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  // Stop initiating barrier rounds. Posted to the leader loop so it
  // serializes behind any in-flight tick (whose barrier completes because
  // every worker loop is still running).
  {
    std::promise<void> quiesced;
    leader().loop.post([this, &quiesced] {
      ticking_ = false;
      quiesced.set_value();
    });
    quiesced.get_future().wait();
  }
  // Fence every worker: drains queued tick tasks, routed applies, and the
  // deferred connection destructions, so nothing useful is left behind in
  // a loop's queue when it stops.
  for (auto& w : workers_) {
    std::promise<void> drained;
    w->loop.post([&drained] { drained.set_value(); });
    drained.get_future().wait();
  }
  for (auto& w : workers_) w->loop.stop();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  upstream_.reset();
  for (auto& w : workers_) {
    w->peers.clear();
    w->daemon_peers.store(0, std::memory_order_relaxed);
    w->peer_count.store(0, std::memory_order_relaxed);
  }
  daemon_count_.store(0, std::memory_order_relaxed);
  if (listener_.valid()) leader().loop.remove(listener_.get());
  listener_.reset();
  if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
    for (auto& w : workers_) {
      stats_.checkpoint_journal_records.fetch_add(w->journal.records(),
                                                  std::memory_order_relaxed);
      checkpoint_->absorb(w->journal);
    }
    checkpoint_->flushJournal();
    writeCheckpointSnapshot(net::EventLoop::Clock::now());
  }
  dumpMetrics();
}

void ShardedCoordinator::restoreFromCheckpoint() {
  if (!checkpoint_ || !checkpoint_->hasData()) return;
  ScheduleState fresh(config_.dclas.thresholds(), config_.max_on_coflows);
  const auto restored = checkpoint_->restore(fresh, config_.dclas.thresholds(),
                                             config_.max_on_coflows);
  if (!restored) {
    stats_.checkpoint_restore_failures.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "coordinator: checkpoint in " << config_.checkpoint_dir
                  << " is unusable; falling back to daemon re-teach";
    return;
  }
  // Redistribute the restored single state across the shards. Placement
  // is the stable CoflowId hash, so a checkpoint written at any shard
  // count restores at any other — including the --shards 1 oracle's.
  fresh.forEachRegistered(
      [&](const coflow::CoflowId& id) { state_.registerCoflow(id); });
  fresh.forEachReport(
      [&](std::uint64_t daemon_id, const coflow::CoflowId& id, double bytes) {
        state_.applySize(daemon_id, id, bytes);
      });
  epoch_.store(restored->epoch, std::memory_order_relaxed);
  fence_.store(std::max<std::uint64_t>(restored->fence, 1),
               std::memory_order_relaxed);
  id_generator_.advanceTo(restored->next_external);
  const TimePoint now = net::EventLoop::Clock::now();
  for (const auto& id : restored->tombstones) {
    state_.shard(state_.shardFor(id)).tombstone(id, now);
  }
  tombstone_count_.store(restored->tombstones.size(), std::memory_order_relaxed);
  registered_count_.store(state_.registeredCount(), std::memory_order_relaxed);
  stats_.checkpoint_restores.fetch_add(1, std::memory_order_relaxed);
  AALO_LOG_INFO << "coordinator: restored " << state_.scheduledCount()
                << " coflows into " << num_shards_ << " shards at epoch "
                << restored->epoch << " (fence "
                << fence_.load(std::memory_order_relaxed) << ", "
                << restored->journal_records << " journal records) from "
                << config_.checkpoint_dir;
}

void ShardedCoordinator::writeCheckpointSnapshot(TimePoint now) {
  if (!checkpoint_) return;
  std::vector<coflow::CoflowId> tombstones;
  tombstones.reserve(state_.tombstoneCount());
  for (std::size_t s = 0; s < num_shards_; ++s) {
    state_.shard(s).forEachTombstone(
        [&](const coflow::CoflowId& id) { tombstones.push_back(id); });
  }
  std::int64_t next_external = 0;
  {
    std::lock_guard lock(id_mutex_);
    next_external = id_generator_.nextExternal();
  }
  if (checkpoint_->writeSnapshot(state_.states(), tombstones,
                                 fence_.load(std::memory_order_relaxed),
                                 epoch_.load(std::memory_order_relaxed),
                                 next_external, config_.dclas.thresholds(),
                                 config_.max_on_coflows)) {
    stats_.checkpoint_snapshots.fetch_add(1, std::memory_order_relaxed);
  } else {
    AALO_LOG_WARN << "coordinator: failed to write checkpoint snapshot in "
                  << config_.checkpoint_dir;
  }
  last_checkpoint_ = now;
}

void ShardedCoordinator::scheduleMetricsDump() {
  leader().loop.callAfter(toNanos(config_.metrics_dump_interval), [this] {
    dumpMetrics();
    if (running_.load(std::memory_order_relaxed)) scheduleMetricsDump();
  });
}

void ShardedCoordinator::dumpMetrics() {
  if (config_.metrics_dump_path.empty()) return;
  if (!metrics_.dumpFiles(config_.metrics_dump_path)) {
    AALO_LOG_WARN << "coordinator: failed to write metrics dump to "
                  << config_.metrics_dump_path;
  }
}

// --- tick / barrier --------------------------------------------------------

void ShardedCoordinator::scheduleTick() {
  leader().loop.callAfter(toNanos(config_.sync_interval), [this] {
    if (!ticking_) return;
    round_start_ = std::chrono::steady_clock::now();
    // One barrier round: every worker participates exactly once. The
    // leader runs its own share inline (blocking this callback until the
    // round completes), so a round can never be half-started.
    for (std::size_t s = 1; s < num_shards_; ++s) {
      workers_[s]->loop.post([this, s] { tickTask(s); });
    }
    tickTask(0);
    if (ticking_) scheduleTick();
  });
}

void ShardedCoordinator::tickTask(std::size_t shard) {
  Worker& w = *workers_[shard];
  const TimePoint now = net::EventLoop::Clock::now();
  evictStalePeers(shard, now);
  collectTombstones(shard, now);
  // Everything this worker's loop delivered before this task — its own
  // decodes and the routed batches other shards posted — is already in
  // the shard state; stage the sorted sub-delta for the merge.
  state_.buildShardDelta(shard);
  w.wants_snapshot_round = config_.full_broadcasts;
  if (!w.wants_snapshot_round) {
    for (const auto& [key, peer] : w.peers) {
      if (!peer.is_daemon && !peer.is_follower) continue;
      if (peer.needs_snapshot ||
          (config_.snapshot_every > 0 &&
           peer.frames_since_snapshot >= config_.snapshot_every)) {
        w.wants_snapshot_round = true;
        break;
      }
    }
  }
  barrier_.arrive_and_wait();
  fanOut(shard);
}

void ShardedCoordinator::onBarrierComplete() {
  // Runs on the last-arriving worker's thread while every worker is
  // parked at the barrier: all shard state is quiescent, and the barrier
  // provides the acquire/release ordering — no locks on this path.
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  round_changed_ = state_.mergeDelta(entries_scratch_, removals_scratch_);

  net::Message message;
  message.type = net::MessageType::kScheduleDelta;
  message.epoch = epoch;
  message.base_epoch = epoch - 1;
  message.fence = fence_.load(std::memory_order_relaxed);
  message.schedule.swap(entries_scratch_);
  message.removals.swap(removals_scratch_);
  net::Buffer& delta_out =
      takeShared(delta_scratch_, *scratch_reuse_, *scratch_alloc_);
  net::encodeMessage(message, delta_out);
  message.schedule.swap(entries_scratch_);
  message.removals.swap(removals_scratch_);

  round_has_snapshot_ = false;
  for (const auto& w : workers_) {
    round_has_snapshot_ = round_has_snapshot_ || w->wants_snapshot_round;
  }
  if (round_has_snapshot_) {
    message.type = net::MessageType::kScheduleUpdate;
    message.base_epoch = 0;
    message.removals.clear();
    message.schedule.swap(entries_scratch_);
    state_.snapshotEntries(message.schedule);
    net::Buffer& snap_out =
        takeShared(snapshot_scratch_, *scratch_reuse_, *scratch_alloc_);
    net::encodeMessage(message, snap_out);
    message.schedule.swap(entries_scratch_);
  }

  if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
    // Shard-consistent epoch marks: every record that could have
    // influenced this round's broadcast is absorbed (in shard-index
    // order) before the round's epoch record, so restore and standby
    // mirroring replay the same prefix a daemon saw.
    std::size_t absorbed = 0;
    for (const auto& w : workers_) {
      absorbed += w->journal.records();
      checkpoint_->absorb(w->journal);
    }
    checkpoint_->journalEpoch(epoch, fence_.load(std::memory_order_relaxed));
    stats_.checkpoint_journal_records.fetch_add(absorbed + 1,
                                                std::memory_order_relaxed);
    checkpoint_->flushJournal();
    const TimePoint now = net::EventLoop::Clock::now();
    if (force_checkpoint_snapshot_ ||
        (config_.checkpoint_interval > 0 &&
         now - last_checkpoint_ >= toNanos(config_.checkpoint_interval))) {
      force_checkpoint_snapshot_ = false;
      writeCheckpointSnapshot(now);
    }
  }

  // Cross-shard gauges, refreshed once per round under quiescence
  // instead of locking the hot path.
  tombstone_count_.store(state_.tombstoneCount(), std::memory_order_relaxed);
  registered_count_.store(state_.registeredCount(), std::memory_order_relaxed);
  round_duration_->observe(elapsedSeconds(round_start_));
}

void ShardedCoordinator::fanOut(std::size_t shard) {
  Worker& w = *workers_[shard];
  std::vector<std::uint64_t> keys;
  keys.reserve(w.peers.size());
  for (const auto& [key, peer] : w.peers) {
    if (peer.is_daemon || peer.is_follower) keys.push_back(key);
  }
  for (const std::uint64_t key : keys) {
    const auto it = w.peers.find(key);
    if (it == w.peers.end()) continue;
    Peer& peer = it->second;
    if (!peer.connection || peer.connection->closed()) continue;
    if (config_.send_queue_max > 0 &&
        peer.connection->pendingBytes() > config_.send_queue_max) {
      if (!config_.full_broadcasts) peer.needs_snapshot = true;
      stats_.broadcasts_coalesced.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const bool want_snapshot =
        config_.full_broadcasts || peer.needs_snapshot ||
        (config_.snapshot_every > 0 &&
         peer.frames_since_snapshot >= config_.snapshot_every);
    if (want_snapshot && round_has_snapshot_ && snapshot_scratch_) {
      // Peer state updated before the send: a failing send closes the
      // connection inline, whose close handler erases this Peer.
      peer.needs_snapshot = false;
      peer.frames_since_snapshot = 0;
      stats_.snapshot_broadcasts.fetch_add(1, std::memory_order_relaxed);
      peer.connection->sendFrame(snapshot_scratch_);
      broadcast_bytes_->fetch_add(4 + snapshot_scratch_->readableBytes());
    } else {
      ++peer.frames_since_snapshot;
      (round_changed_ ? stats_.delta_broadcasts : stats_.broadcasts_suppressed)
          .fetch_add(1, std::memory_order_relaxed);
      peer.connection->sendFrame(delta_scratch_);
      broadcast_bytes_->fetch_add(4 + delta_scratch_->readableBytes());
    }
  }
}

// --- connection ownership --------------------------------------------------

void ShardedCoordinator::onAcceptable() {
  for (;;) {
    net::Fd fd = net::acceptTcp(listener_.get());
    if (!fd.valid()) break;
    const std::size_t target = next_accept_shard_;
    next_accept_shard_ = (next_accept_shard_ + 1) % num_shards_;
    if (target == 0) {
      adoptConnection(0, std::move(fd));
      continue;
    }
    // EventLoop::add is loop-thread-only, so the connection must be
    // constructed on its owning worker; hand the raw fd over via post
    // (shared_ptr because std::function wants copyable captures).
    auto handoff = std::make_shared<net::Fd>(std::move(fd));
    workers_[target]->loop.post([this, target, handoff] {
      adoptConnection(target, std::move(*handoff));
    });
  }
}

void ShardedCoordinator::adoptConnection(std::size_t shard, net::Fd fd) {
  Worker& w = *workers_[shard];
  const std::uint64_t key = w.next_peer_key++;
  Peer peer;
  peer.connection = std::make_unique<net::Connection>(
      w.loop, std::move(fd),
      [this, shard, key](net::Buffer& payload) {
        onMessage(shard, key, payload);
      },
      [this, shard, key] { dropPeer(shard, key); }, &w.conn_metrics);
  if (config_.send_queue_max > 0) {
    peer.connection->setSendQueueLimit(4 * config_.send_queue_max);
  }
  w.peers.emplace(key, std::move(peer));
  w.peer_count.store(w.peers.size(), std::memory_order_relaxed);
}

void ShardedCoordinator::dropPeer(std::size_t shard, std::uint64_t peer_key) {
  Worker& w = *workers_[shard];
  const auto it = w.peers.find(peer_key);
  if (it == w.peers.end()) return;
  if (it->second.is_daemon) {
    const std::uint64_t daemon_id = it->second.daemon_id;
    daemon_count_.fetch_sub(1, std::memory_order_relaxed);
    w.daemon_peers.fetch_sub(1, std::memory_order_relaxed);
    // The daemon's contributions live on every shard; each applies (and
    // journals) the drop on its own thread, FIFO-ordered behind any of
    // the daemon's still-in-flight routed reports.
    applyDropDaemon(shard, daemon_id);
    for (std::size_t t = 0; t < num_shards_; ++t) {
      if (t == shard) continue;
      workers_[t]->loop.post(
          [this, t, daemon_id] { applyDropDaemon(t, daemon_id); });
    }
  }
  auto doomed = std::move(it->second.connection);
  w.peers.erase(it);
  w.peer_count.store(w.peers.size(), std::memory_order_relaxed);
  w.loop.post([conn = std::shared_ptr<net::Connection>(std::move(doomed))] {});
}

void ShardedCoordinator::applyDropDaemon(std::size_t shard,
                                         std::uint64_t daemon_id) {
  ScheduleState& st = state_.shard(shard);
  if (!st.hasReportsFrom(daemon_id)) return;
  st.dropDaemon(daemon_id);
  if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
    workers_[shard]->journal.dropDaemon(daemon_id);
  }
}

void ShardedCoordinator::evictStalePeers(std::size_t shard, TimePoint now) {
  if (config_.liveness_timeout_intervals <= 0 &&
      config_.one_way_timeout_intervals <= 0) {
    return;
  }
  Worker& w = *workers_[shard];
  const auto liveness_budget =
      toNanos(config_.sync_interval * config_.liveness_timeout_intervals);
  const auto one_way_budget =
      toNanos(config_.sync_interval * config_.one_way_timeout_intervals);
  std::vector<std::uint64_t> evict;
  for (const auto& [key, peer] : w.peers) {
    if (!peer.is_daemon) continue;
    if (config_.liveness_timeout_intervals > 0 &&
        now - peer.last_report > liveness_budget) {
      stats_.daemons_evicted.fetch_add(1, std::memory_order_relaxed);
      AALO_LOG_WARN << "coordinator: shard " << shard << " evicting daemon "
                    << peer.daemon_id << " (no report for "
                    << config_.liveness_timeout_intervals << " intervals)";
      evict.push_back(key);
      continue;
    }
    if (config_.one_way_timeout_intervals > 0 &&
        epoch_.load(std::memory_order_relaxed) > peer.echoed_epoch &&
        now - peer.last_echo_advance > one_way_budget) {
      stats_.one_way_evictions.fetch_add(1, std::memory_order_relaxed);
      AALO_LOG_WARN << "coordinator: shard " << shard << " evicting daemon "
                    << peer.daemon_id << " (epoch echo stuck at "
                    << peer.echoed_epoch << "; one-way link)";
      evict.push_back(key);
    }
  }
  for (const std::uint64_t key : evict) dropPeer(shard, key);
}

void ShardedCoordinator::collectTombstones(std::size_t shard, TimePoint now) {
  if (config_.tombstone_gc_intervals <= 0) return;
  const auto budget =
      toNanos(config_.sync_interval * config_.tombstone_gc_intervals);
  stats_.tombstones_collected.fetch_add(
      state_.shard(shard).collectTombstones(now - budget),
      std::memory_order_relaxed);
}

// --- message handling ------------------------------------------------------

void ShardedCoordinator::onMessage(std::size_t shard, std::uint64_t peer_key,
                                   net::Buffer& payload) {
  Worker& w = *workers_[shard];
  const auto it = w.peers.find(peer_key);
  if (it == w.peers.end()) return;
  Peer& peer = it->second;

  net::Message message;
  try {
    message = net::decodeMessage(payload);
  } catch (const std::exception& e) {
    stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "coordinator: dropping malformed frame: " << e.what();
    return;
  }

  const TimePoint now = net::EventLoop::Clock::now();
  switch (message.type) {
    case net::MessageType::kHello:
      peer.is_daemon = true;
      peer.daemon_id = message.daemon_id;
      peer.last_report = now;
      peer.last_echo_advance = now;
      w.daemon_peers.fetch_add(1, std::memory_order_relaxed);
      daemon_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case net::MessageType::kSizeReport:
      handleSizeReport(shard, peer, message, now);
      break;
    case net::MessageType::kRegisterCoflow:
      handleRegister(shard, peer, message);
      break;
    case net::MessageType::kUnregisterCoflow: {
      const std::size_t target = state_.shardFor(message.coflow);
      if (target == shard) {
        applyUnregister(target, message.coflow, now);
      } else {
        workers_[target]->loop.post([this, target, id = message.coflow, now] {
          applyUnregister(target, id, now);
        });
      }
      break;
    }
    case net::MessageType::kSnapshotRequest:
      if (peer.is_daemon || peer.is_follower) {
        peer.needs_snapshot = true;
        stats_.snapshot_requests.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case net::MessageType::kFollowerSubscribe:
      peer.is_follower = true;
      peer.needs_snapshot = true;
      break;
    default:
      AALO_LOG_WARN << "coordinator: unexpected message type";
  }
}

void ShardedCoordinator::handleSizeReport(std::size_t shard, Peer& peer,
                                          const net::Message& message,
                                          TimePoint now) {
  if (!peer.is_daemon) return;
  const auto apply_start = std::chrono::steady_clock::now();
  peer.last_report = now;
  if (message.epoch > peer.echoed_epoch) {
    peer.echoed_epoch = message.epoch;
    peer.last_echo_advance = now;
  }
  Worker& w = *workers_[shard];
  if (num_shards_ == 1) {
    applyRoutedSizes(shard, peer.daemon_id, message.epoch, message.sizes);
    report_apply_->observe(elapsedSeconds(apply_start));
    return;
  }
  // Partition the report by owning shard: this worker's slice applies
  // inline, the rest are handed over as per-shard batches (one post per
  // target, not per size).
  auto& routes = w.route_scratch;
  for (const auto& size : message.sizes) {
    routes[state_.shardFor(size.id)].push_back(size);
  }
  for (std::size_t t = 0; t < num_shards_; ++t) {
    if (routes[t].empty()) continue;
    if (t == shard) {
      applyRoutedSizes(shard, peer.daemon_id, message.epoch, routes[t]);
      routes[t].clear();
    } else {
      workers_[t]->loop.post([this, t, daemon_id = peer.daemon_id,
                              epoch = message.epoch,
                              batch = std::make_shared<
                                  std::vector<net::CoflowSize>>(
                                  std::exchange(routes[t], {}))] {
        applyRoutedSizes(t, daemon_id, epoch, *batch);
      });
    }
  }
  report_apply_->observe(elapsedSeconds(apply_start));
}

void ShardedCoordinator::applyRoutedSizes(std::size_t shard,
                                          std::uint64_t daemon_id,
                                          std::uint64_t epoch,
                                          std::vector<net::CoflowSize> sizes) {
  Worker& w = *workers_[shard];
  ScheduleState& st = state_.shard(shard);
  const TimePoint now = net::EventLoop::Clock::now();
  const bool journal = checkpoint_ != nullptr &&
                       !standby_active_.load(std::memory_order_relaxed);
  net::Message& journaled = w.report_journal_scratch;
  if (journal) {
    journaled.type = net::MessageType::kSizeReport;
    journaled.daemon_id = daemon_id;
    journaled.epoch = epoch;
    journaled.sizes.clear();
  }
  std::uint64_t applied = 0;
  for (const auto& size : sizes) {
    if (!st.applyReport(daemon_id, size.id, size.bytes, now)) continue;
    ++applied;
    if (journal) journaled.sizes.push_back(size);
  }
  if (journal && !journaled.sizes.empty()) w.journal.report(journaled);
  if (applied > 0) w.reports_applied->fetch_add(applied);
}

void ShardedCoordinator::handleRegister(std::size_t shard, Peer& peer,
                                        const net::Message& message) {
  if (standby_active_.load(std::memory_order_relaxed)) {
    AALO_LOG_WARN << "standby: ignoring kRegisterCoflow before promotion";
    return;
  }
  coflow::CoflowId id;
  std::int64_t next_external = 0;
  {
    // Minting is the one cross-worker mutation outside the barrier;
    // registers happen once per coflow, so a mutex is cheap enough.
    std::lock_guard lock(id_mutex_);
    if (message.parents.empty()) {
      id = id_generator_.newRootId();
    } else {
      try {
        id = id_generator_.newChildId(message.parents);
      } catch (const std::invalid_argument&) {
        id = id_generator_.newRootId();  // Malformed parents: fresh DAG.
      }
    }
    next_external = id_generator_.nextExternal();
  }
  const std::size_t target = state_.shardFor(id);
  if (target == shard) {
    applyRegister(target, id, next_external);
  } else {
    workers_[target]->loop.post([this, target, id, next_external] {
      applyRegister(target, id, next_external);
    });
  }
  // Reply immediately: the id is globally unique already, and
  // registerCoflow/applySize commute, so the client may start before the
  // owning shard has folded the registration in.
  net::Message reply;
  reply.type = net::MessageType::kRegisterReply;
  reply.request_id = message.request_id;
  reply.coflow = id;
  net::Buffer out;
  net::encodeMessage(reply, out);
  peer.connection->sendFrame(out);
}

void ShardedCoordinator::applyRegister(std::size_t shard,
                                       const coflow::CoflowId& id,
                                       std::int64_t next_external) {
  Worker& w = *workers_[shard];
  ScheduleState& st = state_.shard(shard);
  // The register/unregister pair for one coflow may arrive via different
  // workers and race through their posts; the tombstone check makes the
  // two orders converge (registered-then-unregistered == never visible).
  if (st.isTombstoned(id)) return;
  st.registerCoflow(id);
  registered_count_.fetch_add(1, std::memory_order_relaxed);
  if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
    w.journal.registerCoflow(id, next_external);
  }
}

void ShardedCoordinator::applyUnregister(std::size_t shard,
                                         const coflow::CoflowId& id,
                                         TimePoint now) {
  Worker& w = *workers_[shard];
  ScheduleState& st = state_.shard(shard);
  const bool was_registered = st.isRegistered(id);
  st.unregisterCoflow(id);
  if (was_registered) registered_count_.fetch_sub(1, std::memory_order_relaxed);
  st.tombstone(id, now);
  if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
    w.journal.unregisterCoflow(id);
  }
}

// --- warm standby ----------------------------------------------------------

void ShardedCoordinator::scheduleFollowerTick() {
  leader().loop.callAfter(toNanos(config_.sync_interval), [this] {
    if (!running_.load(std::memory_order_relaxed)) return;
    if (!standby_active_.load(std::memory_order_relaxed)) return;
    const TimePoint now = net::EventLoop::Clock::now();
    const auto budget = toNanos(config_.sync_interval *
                                std::max(config_.takeover_intervals, 1));
    if (now - last_primary_contact_ > budget) {
      promote();
      return;  // scheduleTick() owns the cadence from here on.
    }
    if (!upstream_ || upstream_->closed()) connectUpstream();
    scheduleFollowerTick();
  });
}

void ShardedCoordinator::connectUpstream() {
  net::Fd fd;
  try {
    fd = net::connectTcp(config_.standby_of);
  } catch (const std::system_error&) {
    return;  // Primary unreachable; the takeover timer keeps running.
  }
  upstream_ = std::make_unique<net::Connection>(
      leader().loop, std::move(fd),
      [this](net::Buffer& payload) { onUpstreamMessage(payload); },
      [this] {
        if (!upstream_) return;
        auto doomed = std::move(upstream_);
        leader().loop.post(
            [conn = std::shared_ptr<net::Connection>(std::move(doomed))] {});
      },
      &leader().conn_metrics);
  net::Message subscribe;
  subscribe.type = net::MessageType::kFollowerSubscribe;
  subscribe.epoch = follower_epoch_;
  subscribe.fence = primary_fence_;
  net::Buffer out;
  net::encodeMessage(subscribe, out);
  upstream_->sendFrame(out);
}

void ShardedCoordinator::onUpstreamMessage(net::Buffer& payload) {
  net::Message message;
  try {
    message = net::decodeMessage(payload);
  } catch (const std::exception& e) {
    stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "standby: dropping malformed frame: " << e.what();
    return;
  }
  if (message.type != net::MessageType::kScheduleUpdate &&
      message.type != net::MessageType::kScheduleDelta) {
    return;
  }
  if (message.fence < primary_fence_) return;  // Deposed incarnation.
  primary_fence_ = message.fence;
  last_primary_contact_ = net::EventLoop::Clock::now();
  if (message.type == net::MessageType::kScheduleUpdate) {
    std::unordered_map<coflow::CoflowId, net::ScheduleEntry> next;
    next.reserve(message.schedule.size());
    for (const auto& entry : message.schedule) {
      next.emplace(entry.id, entry);
      follower_removed_.erase(entry.id);
    }
    for (const auto& [id, entry] : mirror_) {
      if (!next.contains(id)) follower_removed_.insert(id);
    }
    mirror_ = std::move(next);
    follower_epoch_ = message.epoch;
  } else {
    if (message.base_epoch != follower_epoch_) {
      net::Message request;
      request.type = net::MessageType::kSnapshotRequest;
      request.epoch = follower_epoch_;
      net::Buffer out;
      net::encodeMessage(request, out);
      if (upstream_ && !upstream_->closed()) upstream_->sendFrame(out);
      return;
    }
    for (const auto& entry : message.schedule) {
      mirror_[entry.id] = entry;
      follower_removed_.erase(entry.id);
    }
    for (const auto& id : message.removals) {
      mirror_.erase(id);
      follower_removed_.insert(id);
    }
    follower_epoch_ = message.epoch;
  }
  stats_.follower_frames_applied.fetch_add(1, std::memory_order_relaxed);
}

void ShardedCoordinator::promote() {
  const TimePoint now = net::EventLoop::Clock::now();
  if (upstream_) {
    auto doomed = std::move(upstream_);
    leader().loop.post(
        [conn = std::shared_ptr<net::Connection>(std::move(doomed))] {});
  }
  fence_.store(primary_fence_ + 1, std::memory_order_relaxed);
  if (follower_epoch_ > epoch_.load(std::memory_order_relaxed)) {
    epoch_.store(follower_epoch_, std::memory_order_relaxed);
  }
  {
    std::lock_guard lock(id_mutex_);
    std::int64_t next_external = id_generator_.nextExternal();
    for (const auto& [id, entry] : mirror_) {
      next_external = std::max(next_external, id.external + 1);
    }
    for (const auto& id : follower_removed_) {
      next_external = std::max(next_external, id.external + 1);
    }
    id_generator_.advanceTo(next_external);
  }
  // Seed the shards from the mirror. The seeding lambdas are FIFO-queued
  // per worker before the first barrier round (scheduleTick below fires
  // at least Δ later, and the leader posts both), so the first broadcast
  // already carries the mirrored schedule.
  std::size_t seeded = 0;
  for (const auto& [id, entry] : mirror_) {
    const std::size_t t = state_.shardFor(id);
    const auto seed = [this, t, id = id] {
      state_.shard(t).registerCoflow(id);
      registered_count_.fetch_add(1, std::memory_order_relaxed);
    };
    if (t == 0) {
      seed();
    } else {
      workers_[t]->loop.post(seed);
    }
    ++seeded;
  }
  for (const auto& id : follower_removed_) {
    const std::size_t t = state_.shardFor(id);
    const auto seed = [this, t, id, now] {
      state_.shard(t).unregisterCoflow(id);
      state_.shard(t).tombstone(id, now);
    };
    if (t == 0) {
      seed();
    } else {
      workers_[t]->loop.post(seed);
    }
  }
  // Every already-connected peer must see a full snapshot under the new
  // fence before any delta can compose.
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const auto mark = [this, s] {
      for (auto& [key, peer] : workers_[s]->peers) peer.needs_snapshot = true;
    };
    if (s == 0) {
      mark();
    } else {
      workers_[s]->loop.post(mark);
    }
  }
  standby_active_.store(false, std::memory_order_relaxed);
  stats_.failovers.fetch_add(1, std::memory_order_relaxed);
  AALO_LOG_WARN << "standby promoting to primary (" << num_shards_
                << " shards): fence " << fence_.load(std::memory_order_relaxed)
                << ", epoch " << epoch_.load(std::memory_order_relaxed) << ", "
                << seeded << " mirrored coflows, " << follower_removed_.size()
                << " tombstones";
  // The checkpoint snapshot happens at the first barrier completion —
  // after every seed post above has landed — instead of here, where the
  // remote shards are not yet seeded.
  force_checkpoint_snapshot_ = checkpoint_ != nullptr;
  ticking_ = true;
  scheduleTick();
}

// --- diagnostic accessors --------------------------------------------------

std::unordered_map<coflow::CoflowId, double> ShardedCoordinator::globalSizes() {
  if (!running_.load(std::memory_order_relaxed)) return state_.globalSizes();
  // Collected per shard on its own thread; the shards are sampled at
  // (slightly) different instants, which is fine for a diagnostic view —
  // tests read it at quiescence.
  std::vector<std::promise<std::unordered_map<coflow::CoflowId, double>>>
      promises(num_shards_);
  std::vector<std::future<std::unordered_map<coflow::CoflowId, double>>>
      futures;
  futures.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    futures.push_back(promises[s].get_future());
    workers_[s]->loop.post([this, s, &promises] {
      promises[s].set_value(state_.shard(s).globalSizes());
    });
  }
  std::unordered_map<coflow::CoflowId, double> merged;
  for (auto& f : futures) {
    for (const auto& [id, bytes] : f.get()) merged.emplace(id, bytes);
  }
  return merged;
}

std::vector<net::ScheduleEntry> ShardedCoordinator::scheduleSnapshot() {
  if (!running_.load(std::memory_order_relaxed)) {
    std::vector<net::ScheduleEntry> out;
    state_.snapshotEntries(out);
    return out;
  }
  std::vector<std::promise<std::vector<net::ScheduleEntry>>> promises(
      num_shards_);
  std::vector<std::future<std::vector<net::ScheduleEntry>>> futures;
  futures.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    futures.push_back(promises[s].get_future());
    workers_[s]->loop.post([this, s, &promises] {
      std::vector<net::ScheduleEntry> part;
      state_.shard(s).snapshotEntries(part);
      promises[s].set_value(std::move(part));
    });
  }
  std::vector<std::vector<net::ScheduleEntry>> parts;
  parts.reserve(num_shards_);
  for (auto& f : futures) parts.push_back(f.get());
  std::vector<const std::vector<net::ScheduleEntry>*> part_ptrs;
  part_ptrs.reserve(parts.size());
  for (const auto& p : parts) part_ptrs.push_back(&p);
  std::vector<net::ScheduleEntry> out;
  kWayMergeEntries(part_ptrs, out);
  if (config_.max_on_coflows > 0) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].on = i < config_.max_on_coflows;
    }
  }
  return out;
}

}  // namespace aalo::runtime
