#include "runtime/coordinator.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <vector>

#include "net/protocol.h"
#include "runtime/metrics.h"
#include "util/log.h"

namespace aalo::runtime {

namespace {

std::chrono::nanoseconds toNanos(util::Seconds s) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9));
}

/// Reusable shared encode buffer: cleared in place when no connection's
/// send queue still references last round's bytes, replaced otherwise
/// (the slow peer keeps writing from the old buffer undisturbed).
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

/// Ingress slots per Δ: daemon connections are read at most this many
/// times per coordination interval (plus the tick's final pass). Chosen by
/// a coord_10k A/B (DESIGN.md §9): fewer slots read more per pass and
/// delay the broadcast by the final pass's apply work; more slots give
/// back the per-wake-up cost.
constexpr int kIngressSlots = 8;

util::Seconds elapsedSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Runs `compute` on the loop thread while the loop runs (inline
// otherwise) and returns its result: what makes the test/diagnostic
// accessors thread-safe.
template <typename F>
auto onLoopThread(net::EventLoop& loop, bool running, const F& compute) {
  if (!running) return compute();
  std::promise<decltype(compute())> promise;
  auto future = promise.get_future();
  loop.post([&compute, &promise] { promise.set_value(compute()); });
  return future.get();
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      state_(config_.dclas.thresholds(), config_.max_on_coflows) {
  registerMetrics();
}

void Coordinator::registerMetrics() {
  registerRobustnessStats(metrics_, stats_, "aalo_coordinator");
  net::registerConnMetrics(metrics_, conn_metrics_, "aalo_coordinator");
  round_duration_ = &metrics_.histogram("aalo_coordinator_round_duration_seconds",
                                        "Coordination tick (evict + GC + broadcast)",
                                        {.first_bound = 1e-6, .num_bounds = 24});
  report_apply_ = &metrics_.histogram(
      "aalo_coordinator_report_apply_seconds",
      "Per ingress pass with size reports: decode, fold into ScheduleState, journal",
      {.first_bound = 1e-7, .num_bounds = 24});
  broadcast_bytes_ = &metrics_.counter("aalo_coordinator_broadcast_bytes_total",
                                       "Schedule fan-out wire bytes incl. headers");
  scratch_reuse_ = &metrics_.counter("aalo_coordinator_encode_scratch_reuse_total",
                                     "Broadcast encode buffers cleared in place");
  scratch_alloc_ = &metrics_.counter("aalo_coordinator_encode_scratch_alloc_total",
                                     "Broadcast encode buffers reallocated");
  metrics_.attachGauge("aalo_coordinator_daemons", "Daemons currently connected",
                       [this] { return static_cast<double>(daemonCount()); });
  metrics_.attachGauge("aalo_coordinator_registered_coflows",
                       "Coflows currently registered",
                       [this] { return static_cast<double>(registeredCoflows()); });
  metrics_.attachGauge("aalo_coordinator_tombstones",
                       "Unregister tombstones held (pre-GC)",
                       [this] { return static_cast<double>(tombstoneCount()); });
  metrics_.attachGauge("aalo_coordinator_epoch", "Completed coordination rounds",
                       [this] { return static_cast<double>(epoch()); });
}

Coordinator::~Coordinator() { stop(); }

std::uint16_t Coordinator::port() const { return port_; }

std::uint64_t Coordinator::epoch() const {
  return epoch_.load(std::memory_order_relaxed);
}

std::uint64_t Coordinator::fence() const {
  return fence_.load(std::memory_order_relaxed);
}

bool Coordinator::isPrimary() const {
  return !standby_active_.load(std::memory_order_relaxed);
}

std::size_t Coordinator::daemonCount() const {
  return daemon_count_.load(std::memory_order_relaxed);
}

std::size_t Coordinator::registeredCoflows() const {
  return registered_count_.load(std::memory_order_relaxed);
}

std::size_t Coordinator::tombstoneCount() const {
  return tombstone_count_.load(std::memory_order_relaxed);
}

const RobustnessStats& Coordinator::stats() const { return stats_; }

const obs::Registry& Coordinator::metrics() const { return metrics_; }

void Coordinator::start() {
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
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { onAcceptable(); });
  if (standby) {
    standby_started_ = net::EventLoop::Clock::now();
    // Give the primary a full takeover budget from our own start even if
    // it never answers (it may be dead already: cold-start takeover).
    last_primary_contact_ = standby_started_;
    connectUpstream();
    scheduleFollowerTick();
  } else {
    // Rebase the journal on a snapshot of the (restored or fresh) state so
    // restore is always snapshot + suffix, never an unbounded replay.
    if (checkpoint_) writeCheckpointSnapshot(net::EventLoop::Clock::now());
    scheduleTick();
  }
  thread_ = std::thread([this] { loop_.run(); });
  AALO_LOG_INFO << "coordinator " << (standby ? "(standby) " : "")
                << "listening on 127.0.0.1:" << port_;
}

void Coordinator::stop() {
  // The lifecycle mutex makes racing stop() calls (or stop() racing the
  // destructor) serialize; every caller returns only once shutdown is done.
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  // The loop thread is gone: destroy connections inline (their destructors
  // deregister from the now-idle loop).
  upstream_.reset();
  peers_.clear();
  // Connections whose EOF the loop never got to process would otherwise
  // leave a stale daemon count behind after shutdown.
  daemon_count_.store(0, std::memory_order_relaxed);
  if (listener_.valid()) loop_.remove(listener_.get());
  listener_.reset();
  if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
    // Graceful shutdown: one final snapshot, so a successor restores the
    // exact closing state without replaying any journal.
    checkpoint_->flushJournal();
    writeCheckpointSnapshot(net::EventLoop::Clock::now());
  }
}

void Coordinator::restoreFromCheckpoint() {
  if (!checkpoint_ || !checkpoint_->hasData()) return;
  ScheduleState fresh(config_.dclas.thresholds(), config_.max_on_coflows);
  const auto restored = checkpoint_->restore(fresh, config_.dclas.thresholds(),
                                             config_.max_on_coflows);
  if (!restored) {
    // Corrupt or config-incompatible checkpoint: never guess. Start blind
    // and let the daemons' forced full reports re-teach us (§3.2).
    stats_.checkpoint_restore_failures.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "coordinator: checkpoint in " << config_.checkpoint_dir
                  << " is unusable; falling back to daemon re-teach";
    return;
  }
  state_ = std::move(fresh);
  epoch_.store(restored->epoch, std::memory_order_relaxed);
  fence_.store(std::max<std::uint64_t>(restored->fence, 1),
               std::memory_order_relaxed);
  id_generator_.advanceTo(restored->next_external);
  const TimePoint now = net::EventLoop::Clock::now();
  for (const auto& id : restored->tombstones) state_.tombstone(id, now);
  tombstone_count_.store(state_.tombstoneCount(), std::memory_order_relaxed);
  registered_count_.store(state_.registeredCount(), std::memory_order_relaxed);
  stats_.checkpoint_restores.fetch_add(1, std::memory_order_relaxed);
  AALO_LOG_INFO << "coordinator: restored " << state_.scheduledCount()
                << " coflows at epoch " << restored->epoch << " (fence "
                << fence_.load(std::memory_order_relaxed) << ", "
                << restored->journal_records << " journal records) from "
                << config_.checkpoint_dir;
}

void Coordinator::writeCheckpointSnapshot(TimePoint now) {
  if (!checkpoint_) return;
  std::vector<coflow::CoflowId> tombstones;
  tombstones.reserve(state_.tombstoneCount());
  state_.forEachTombstone(
      [&](const coflow::CoflowId& id) { tombstones.push_back(id); });
  if (checkpoint_->writeSnapshot(state_, tombstones,
                                 fence_.load(std::memory_order_relaxed),
                                 epoch_.load(std::memory_order_relaxed),
                                 id_generator_.nextExternal(),
                                 config_.dclas.thresholds(),
                                 config_.max_on_coflows)) {
    stats_.checkpoint_snapshots.fetch_add(1, std::memory_order_relaxed);
  } else {
    AALO_LOG_WARN << "coordinator: failed to write checkpoint snapshot in "
                  << config_.checkpoint_dir;
  }
  last_checkpoint_ = now;
}

void Coordinator::scheduleTick() {
  next_tick_ = net::EventLoop::Clock::now() + toNanos(config_.sync_interval);
  loop_.callAt(next_tick_, [this] {
    // Final pass: every report that has arrived makes this broadcast.
    runIngressPass();
    const auto start = std::chrono::steady_clock::now();
    const TimePoint now = net::EventLoop::Clock::now();
    evictStalePeers(now);
    collectTombstones(now);
    broadcastSchedule();
    if (checkpoint_) {
      // An epoch mark per round keeps the restored epoch (and with it the
      // fencing story) close to the truth even between snapshots.
      checkpoint_->journalEpoch(epoch_.load(std::memory_order_relaxed),
                                fence_.load(std::memory_order_relaxed));
      stats_.checkpoint_journal_records.fetch_add(1, std::memory_order_relaxed);
      checkpoint_->flushJournal();
      if (config_.checkpoint_interval > 0 &&
          now - last_checkpoint_ >= toNanos(config_.checkpoint_interval)) {
        writeCheckpointSnapshot(now);
      }
    }
    round_duration_->observe(elapsedSeconds(start));
    if (running_.load(std::memory_order_relaxed)) scheduleTick();
  });
}

void Coordinator::scheduleFollowerTick() {
  loop_.callAfter(toNanos(config_.sync_interval), [this] {
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

void Coordinator::connectUpstream() {
  net::Fd fd;
  try {
    fd = net::connectTcp(config_.standby_of);
  } catch (const std::system_error&) {
    return;  // Primary unreachable; the takeover timer keeps running.
  }
  upstream_ = std::make_unique<net::Connection>(
      loop_, std::move(fd),
      [this](net::Buffer& payload) { onUpstreamMessage(payload); },
      [this] {
        if (!upstream_) return;
        // We are inside the connection's own callback chain: defer its
        // destruction, redial on the next follower tick.
        auto doomed = std::move(upstream_);
        loop_.post([conn = std::shared_ptr<net::Connection>(std::move(doomed))] {});
      },
      &conn_metrics_);
  net::Message subscribe;
  subscribe.type = net::MessageType::kFollowerSubscribe;
  subscribe.epoch = upstream_schedule_.epoch();
  subscribe.fence = upstream_schedule_.fence();
  // The primary may have restarted its round counter: its connect
  // snapshot starts a fresh chain, exactly as on a daemon's reconnect.
  upstream_schedule_.restartChain();
  net::Buffer out;
  net::encodeMessage(subscribe, out);
  upstream_->sendFrame(out);
}

void Coordinator::onUpstreamMessage(net::Buffer& payload) {
  net::Message& message = inbound_;
  try {
    net::decodeMessage(payload, message);
  } catch (const std::exception& e) {
    stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "standby: dropping malformed frame: " << e.what();
    return;
  }
  if (message.type != net::MessageType::kScheduleUpdate &&
      message.type != net::MessageType::kScheduleDelta) {
    return;
  }
  std::vector<coflow::CoflowId> removed;
  const auto outcome = upstream_schedule_.apply(message, &removed);
  if (outcome == ScheduleMirror::Outcome::kStaleFence) return;  // Deposed.
  // Any frame of the current primary, applied or not, proves it alive.
  last_primary_contact_ = net::EventLoop::Clock::now();
  if (outcome == ScheduleMirror::Outcome::kOldEpoch) return;
  if (outcome == ScheduleMirror::Outcome::kDigestMismatch) {
    stats_.schedule_digest_mismatches.fetch_add(1, std::memory_order_relaxed);
  }
  if ((outcome == ScheduleMirror::Outcome::kGap ||
       outcome == ScheduleMirror::Outcome::kDigestMismatch) &&
      upstream_schedule_.snapshotRequestDue(message.epoch)) {
    // Epoch gap or diverged mirror: recover exactly like a daemon.
    net::Message request;
    request.type = net::MessageType::kSnapshotRequest;
    request.epoch = upstream_schedule_.epoch();
    net::Buffer out;
    net::encodeMessage(request, out);
    if (upstream_ && !upstream_->closed()) upstream_->sendFrame(out);
  }
  if (outcome == ScheduleMirror::Outcome::kGap) return;
  // Coflows the stream dropped (delta removals, snapshot disappearance)
  // were unregistered upstream: tombstoned at promotion so stale reports
  // cannot resurrect them.
  for (const auto& entry : message.schedule) follower_removed_.erase(entry.id);
  follower_removed_.insert(removed.begin(), removed.end());
  stats_.follower_frames_applied.fetch_add(1, std::memory_order_relaxed);
}

void Coordinator::promote() {
  const TimePoint now = net::EventLoop::Clock::now();
  if (upstream_) {
    auto doomed = std::move(upstream_);
    loop_.post([conn = std::shared_ptr<net::Connection>(std::move(doomed))] {});
  }
  // Fence above everything the primary ever broadcast: should the deposed
  // primary come back, daemons following the highest fence ignore it.
  fence_.store(std::max<std::uint64_t>(upstream_schedule_.fence(), 1) + 1,
               std::memory_order_relaxed);
  if (upstream_schedule_.epoch() > epoch_.load(std::memory_order_relaxed)) {
    epoch_.store(upstream_schedule_.epoch(), std::memory_order_relaxed);
  }
  // Seed the schedule from the mirror. registerCoflow is try_emplace-like:
  // coflows daemons already re-taught us keep their sizes, the rest enter
  // at queue 0 and are re-learned within a report round — and the daemons'
  // max(local D-CLAS, schedule) rule means the transient zero can never
  // promote a coflow above what its local size justifies.
  std::int64_t next_external = id_generator_.nextExternal();
  for (const auto& [id, entry] : upstream_schedule_.entries()) {
    state_.registerCoflow(id);
    next_external = std::max(next_external, id.external + 1);
  }
  for (const auto& id : follower_removed_) {
    state_.unregisterCoflow(id);
    state_.tombstone(id, now);
    next_external = std::max(next_external, id.external + 1);
  }
  id_generator_.advanceTo(next_external);
  tombstone_count_.store(state_.tombstoneCount(), std::memory_order_relaxed);
  registered_count_.store(state_.registeredCount(), std::memory_order_relaxed);
  // Every already-connected peer must see a full snapshot under the new
  // fence before any delta can compose.
  for (auto& [key, peer] : peers_) peer.needs_snapshot = true;
  standby_active_.store(false, std::memory_order_relaxed);
  stats_.failovers.fetch_add(1, std::memory_order_relaxed);
  AALO_LOG_WARN << "standby promoting to primary: fence "
                << fence_.load(std::memory_order_relaxed) << ", epoch "
                << epoch_.load(std::memory_order_relaxed) << ", "
                << upstream_schedule_.entries().size() << " mirrored coflows, "
                << follower_removed_.size() << " tombstones";
  if (checkpoint_) writeCheckpointSnapshot(now);
  scheduleTick();
}

void Coordinator::onAcceptable() {
  for (;;) {
    net::Fd fd = net::acceptTcp(listener_.get());
    if (!fd.valid()) break;
    const std::uint64_t key = next_peer_key_++;
    Peer peer;
    peer.connection = std::make_unique<net::Connection>(
        loop_, std::move(fd),
        [this, key](net::Buffer& payload) { onMessage(key, payload); },
        [this, key] { dropPeer(key); }, &conn_metrics_);
    if (config_.send_queue_max > 0) {
      // Coalescing (skip broadcasts at send_queue_max) is the soft limit;
      // the connection's hard close at 4x bounds worst-case memory even if
      // a non-broadcast write path misbehaves.
      peer.connection->setSendQueueLimit(4 * config_.send_queue_max);
    }
    peers_.emplace(key, std::move(peer));
  }
}

void Coordinator::onDaemonReadable(std::uint64_t peer_key) {
  readable_.push_back(peer_key);
  // Lightly loaded (the last pass is a slot old): read it now, inline.
  if (net::EventLoop::Clock::now() >= ingressDue()) {
    runIngressPass();
  } else {
    armIngress();
  }
}

net::EventLoop::Clock::time_point Coordinator::ingressDue() const {
  const auto slot = toNanos(config_.sync_interval / kIngressSlots);
  // Phase lock: a round's last slot pass runs a quarter slot before the
  // tick, so the tick's final pass (which delays the broadcast) reads
  // only what arrived in that quarter slot.
  const TimePoint pre_tick = next_tick_ - slot / 4;
  const TimePoint due = last_ingress_ + slot;
  return last_ingress_ < pre_tick && due > pre_tick ? pre_tick : due;
}

void Coordinator::armIngress() {
  if (ingress_armed_ || readable_.empty()) return;
  ingress_armed_ = true;
  loop_.callAt(ingressDue(), [this] {
    ingress_armed_ = false;
    // A tick's final pass may have read since this was armed.
    if (net::EventLoop::Clock::now() >= ingressDue()) runIngressPass();
    armIngress();
  });
}

void Coordinator::runIngressPass() {
  if (readable_.empty()) return;
  // One clock read per pass: every frame it delivers takes it as `now`,
  // and the pass's apply time runs from here.
  last_ingress_ = net::EventLoop::Clock::now();
  in_pass_ = true;
  pass_reports_ = false;
  stats_.ingress_passes.fetch_add(1, std::memory_order_relaxed);
  // By index: a read that closes its connection only drops the peer, and
  // readiness is signalled from the loop, never from inside a read.
  for (std::size_t i = 0; i < readable_.size(); ++i) {
    const auto it = peers_.find(readable_[i]);
    if (it != peers_.end()) it->second.connection->readNow();
  }
  readable_.clear();
  in_pass_ = false;
  if (pass_reports_) report_apply_->observe(elapsedSeconds(last_ingress_));
}

void Coordinator::dropPeer(std::uint64_t peer_key) {
  const auto it = peers_.find(peer_key);
  if (it == peers_.end()) return;
  if (it->second.is_daemon) {
    state_.dropDaemon(it->second.daemon_id);
    daemon_count_.fetch_sub(1, std::memory_order_relaxed);
    if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
      checkpoint_->journalDropDaemon(it->second.daemon_id);
      stats_.checkpoint_journal_records.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Defer destruction: we may be inside this connection's own callback
  // chain (close handler), or about to destroy it from the eviction pass.
  auto doomed = std::move(it->second.connection);
  peers_.erase(it);
  loop_.post([conn = std::shared_ptr<net::Connection>(std::move(doomed))] {});
}

void Coordinator::evictStalePeers(TimePoint now) {
  if (config_.liveness_timeout_intervals <= 0 &&
      config_.one_way_timeout_intervals <= 0) {
    return;
  }
  const auto liveness_budget =
      toNanos(config_.sync_interval * config_.liveness_timeout_intervals);
  const auto one_way_budget =
      toNanos(config_.sync_interval * config_.one_way_timeout_intervals);
  std::vector<std::uint64_t> evict;
  for (const auto& [key, peer] : peers_) {
    if (!peer.is_daemon) continue;
    if (config_.liveness_timeout_intervals > 0 &&
        now - peer.last_report > liveness_budget) {
      stats_.daemons_evicted.fetch_add(1, std::memory_order_relaxed);
      AALO_LOG_WARN << "coordinator: evicting daemon " << peer.daemon_id
                    << " (no report for " << config_.liveness_timeout_intervals
                    << " intervals)";
      evict.push_back(key);
      continue;
    }
    // One-way failure: its reports arrive (first branch did not trip) but
    // it never acknowledges our broadcasts — the send path is dead. Only
    // meaningful once we have actually broadcast something newer than the
    // daemon's echo.
    if (config_.one_way_timeout_intervals > 0 &&
        epoch_.load(std::memory_order_relaxed) > peer.echoed_epoch &&
        now - peer.last_echo_advance > one_way_budget) {
      stats_.one_way_evictions.fetch_add(1, std::memory_order_relaxed);
      AALO_LOG_WARN << "coordinator: evicting daemon " << peer.daemon_id
                    << " (epoch echo stuck at " << peer.echoed_epoch
                    << "; one-way link)";
      evict.push_back(key);
    }
  }
  for (const std::uint64_t key : evict) dropPeer(key);
}

void Coordinator::collectTombstones(TimePoint now) {
  if (config_.tombstone_gc_intervals <= 0) return;
  const auto budget =
      toNanos(config_.sync_interval * config_.tombstone_gc_intervals);
  stats_.tombstones_collected.fetch_add(state_.collectTombstones(now - budget),
                                        std::memory_order_relaxed);
  tombstone_count_.store(state_.tombstoneCount(), std::memory_order_relaxed);
}

void Coordinator::onMessage(std::uint64_t peer_key, net::Buffer& payload) {
  const auto it = peers_.find(peer_key);
  if (it == peers_.end()) return;
  Peer& peer = *&it->second;

  // Daemon frames after the Hello arrive only in ingress passes, which
  // read the clock once; the rest (Hello, client RPCs, standbys) are rare.
  const TimePoint now = in_pass_ ? last_ingress_ : net::EventLoop::Clock::now();

  net::Message& message = inbound_;
  try {
    net::decodeMessage(payload, message);
  } catch (const std::exception& e) {
    stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "coordinator: dropping malformed frame: " << e.what();
    return;
  }

  switch (message.type) {
    case net::MessageType::kHello:
      if (peer.is_daemon) {
        // A connection says Hello once. A repeat under the same id is
        // ignored. Under another id it would orphan the first id's sizes,
        // so the connection is closed, which drops them.
        stats_.repeated_hellos.fetch_add(1, std::memory_order_relaxed);
        if (message.daemon_id != peer.daemon_id) {
          AALO_LOG_WARN << "coordinator: daemon " << peer.daemon_id
                        << " said Hello again as " << message.daemon_id
                        << "; closing its connection";
          dropPeer(peer_key);  // `peer` dangles from here on.
        }
        return;
      }
      // From here on its frames are read in ingress passes, starting with
      // those that arrived behind the Hello.
      peer.connection->coalesceReads(
          [this, peer_key] { onDaemonReadable(peer_key); });
      readable_.push_back(peer_key);
      armIngress();
      peer.is_daemon = true;
      peer.daemon_id = message.daemon_id;
      peer.last_report = now;
      peer.last_echo_advance = now;
      daemon_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case net::MessageType::kSizeReport:
      if (peer.is_daemon) {
        pass_reports_ = true;
        peer.last_report = now;
        if (message.epoch > peer.echoed_epoch) {
          peer.echoed_epoch = message.epoch;
          peer.last_echo_advance = now;
        }
        const bool journal =
            checkpoint_ != nullptr &&
            !standby_active_.load(std::memory_order_relaxed);
        net::Message& journaled = report_journal_scratch_;
        if (journal) {
          journaled.type = net::MessageType::kSizeReport;
          journaled.daemon_id = peer.daemon_id;
          journaled.epoch = message.epoch;
          journaled.sizes.clear();
        }
        // Start every entry's bucket load first: the frame's probes into
        // the coflow table then overlap instead of missing one by one.
        for (const auto& s : message.sizes) state_.prefetch(s.id);
        for (const auto& s : message.sizes) {
          // A NaN, infinite or negative size would poison the coflow's
          // global total, which every daemon is then told.
          if (!isValidReportedSize(s.bytes)) {
            stats_.rejected_sizes.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Completed coflows must not resurface (tombstone); a filtered
          // mention keeps the tombstone alive while any daemon reports it.
          if (!state_.applyReport(peer.daemon_id, s.id, s.bytes, now)) continue;
          if (journal) journaled.sizes.push_back(s);
        }
        if (journal && !journaled.sizes.empty()) {
          // Only the applied (tombstone-filtered) slice reaches the
          // journal, so replay never resurrects a completed coflow.
          checkpoint_->journalReport(journaled);
          stats_.checkpoint_journal_records.fetch_add(1,
                                                      std::memory_order_relaxed);
        }
      }
      break;
    case net::MessageType::kRegisterCoflow: {
      if (standby_active_.load(std::memory_order_relaxed)) {
        // A standby must not mint CoflowIds: they would collide with the
        // primary's. The client's RPC retry finds the primary (or waits
        // out our promotion).
        AALO_LOG_WARN << "standby: ignoring kRegisterCoflow before promotion";
        break;
      }
      coflow::CoflowId id;
      if (message.parents.empty()) {
        id = id_generator_.newRootId();
      } else {
        try {
          id = id_generator_.newChildId(message.parents);
        } catch (const std::invalid_argument&) {
          id = id_generator_.newRootId();  // Malformed parents: fresh DAG.
        }
      }
      state_.registerCoflow(id);
      registered_count_.store(state_.registeredCount(),
                              std::memory_order_relaxed);
      if (checkpoint_) {
        checkpoint_->journalRegister(id, id_generator_.nextExternal());
        stats_.checkpoint_journal_records.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      net::Message reply;
      reply.type = net::MessageType::kRegisterReply;
      reply.request_id = message.request_id;
      reply.coflow = id;
      net::Buffer out;
      net::encodeMessage(reply, out);
      peer.connection->sendFrame(out);
      break;
    }
    case net::MessageType::kUnregisterCoflow:
      state_.unregisterCoflow(message.coflow);
      state_.tombstone(message.coflow, now);
      tombstone_count_.store(state_.tombstoneCount(), std::memory_order_relaxed);
      registered_count_.store(state_.registeredCount(),
                              std::memory_order_relaxed);
      if (checkpoint_ && !standby_active_.load(std::memory_order_relaxed)) {
        checkpoint_->journalUnregister(message.coflow);
        stats_.checkpoint_journal_records.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      break;
    case net::MessageType::kSnapshotRequest:
      // The daemon (or a subscribed standby) detected an epoch gap or a
      // digest mismatch, or lost its schedule: serve a full snapshot on
      // the next round instead of a delta it cannot apply.
      if (peer.is_daemon || peer.is_follower) {
        peer.needs_snapshot = true;
        stats_.snapshot_requests.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case net::MessageType::kFollowerSubscribe:
      // A warm standby joins the broadcast fan-out as a pseudo-daemon: it
      // gets the same snapshot-then-deltas stream but never reports, so
      // the liveness/one-way watchdogs leave it alone.
      peer.is_follower = true;
      peer.needs_snapshot = true;
      break;
    default:
      AALO_LOG_WARN << "coordinator: unexpected message type";
  }
}

void Coordinator::broadcastSchedule() {
  const std::uint64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  // What changed is encoded once (an unchanged schedule encodes as an
  // epoch-only heartbeat) with the schedule's digest; snapshots are owed
  // only on connect, on request and after backpressure.
  net::Message message;
  message.type = net::MessageType::kScheduleDelta;
  message.epoch = epoch;
  message.base_epoch = epoch - 1;
  message.fence = fence_.load(std::memory_order_relaxed);
  const bool changed = state_.buildDelta(entries_scratch_, removals_scratch_);
  message.schedule_digest = state_.scheduleDigest();
  message.schedule.swap(entries_scratch_);
  message.removals.swap(removals_scratch_);
  net::encodeMessage(
      message, takeShared(delta_scratch_, *scratch_reuse_, *scratch_alloc_));
  message.schedule.swap(entries_scratch_);
  message.removals.swap(removals_scratch_);
  // The snapshot is encoded lazily — most rounds no peer needs one.
  bool snapshot_encoded = false;
  const auto encodeSnapshot = [&] {
    message.type = net::MessageType::kScheduleUpdate;
    message.base_epoch = 0;
    message.schedule.swap(entries_scratch_);
    state_.snapshotEntries(message.schedule);
    net::encodeMessage(message, takeShared(snapshot_scratch_, *scratch_reuse_,
                                           *scratch_alloc_));
    message.schedule.swap(entries_scratch_);  // Keep the capacity for reuse.
    snapshot_encoded = true;
  };

  // Snapshot the peer keys: a failing send may close a connection, whose
  // close handler erases it from peers_ — mutating the map mid-iteration.
  std::vector<std::uint64_t> keys;
  keys.reserve(peers_.size());
  for (const auto& [key, peer] : peers_) {
    if (peer.is_daemon || peer.is_follower) keys.push_back(key);
  }
  for (const std::uint64_t key : keys) {
    const auto it = peers_.find(key);
    if (it == peers_.end()) continue;
    Peer& peer = it->second;
    if (!peer.connection || peer.connection->closed()) continue;
    if (config_.send_queue_max > 0 &&
        peer.connection->pendingBytes() > config_.send_queue_max) {
      // Backpressure: the peer stopped draining (blackholed link, hung
      // process). Skip it — sending more only bloats its queue — and mark
      // it for a full snapshot, which coalesces every skipped round into
      // one frame once it drains (or it trips the liveness watchdog).
      peer.needs_snapshot = true;
      stats_.broadcasts_coalesced.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const bool want_snapshot = peer.needs_snapshot;
    // Update peer state *before* the send: a failing send closes the
    // connection inline, whose close handler erases this Peer.
    if (want_snapshot) {
      if (!snapshot_encoded) encodeSnapshot();
      peer.needs_snapshot = false;
    }
    (want_snapshot ? stats_.snapshot_broadcasts
     : changed     ? stats_.delta_broadcasts
                   : stats_.broadcasts_suppressed)
        .fetch_add(1, std::memory_order_relaxed);
    const auto& frame = want_snapshot ? snapshot_scratch_ : delta_scratch_;
    peer.connection->sendFrame(frame);
    broadcast_bytes_->fetch_add(4 + frame->readableBytes());
  }
}

std::unordered_map<coflow::CoflowId, double> Coordinator::globalSizes() {
  return onLoopThread(loop_, running_.load(std::memory_order_relaxed),
                      [this] { return state_.globalSizes(); });
}

std::vector<net::ScheduleEntry> Coordinator::scheduleSnapshot() {
  return onLoopThread(loop_, running_.load(std::memory_order_relaxed), [this] {
    std::vector<net::ScheduleEntry> out;
    state_.snapshotEntries(out);
    return out;
  });
}

std::unordered_set<coflow::CoflowId> Coordinator::mirroredCoflows() {
  return onLoopThread(loop_, running_.load(std::memory_order_relaxed), [this] {
    std::unordered_set<coflow::CoflowId> out;
    for (const auto& [id, entry] : upstream_schedule_.entries()) out.insert(id);
    return out;
  });
}

}  // namespace aalo::runtime
