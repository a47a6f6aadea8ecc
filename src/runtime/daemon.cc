#include "runtime/daemon.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <limits>
#include <system_error>

#include "runtime/metrics.h"
#include "util/log.h"

namespace aalo::runtime {

namespace {

// Delta reports with no changed coflows are suppressed entirely, except
// that every this many ticks an empty keepalive still goes out so the
// coordinator's liveness watchdog and epoch echo keep working. It must
// stay well under CoordinatorConfig::liveness_timeout_intervals (10 by
// default) so an idle daemon is never mistaken for a dead one.
constexpr int kReportKeepaliveIntervals = 3;

std::chrono::nanoseconds toNanos(util::Seconds s) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9));
}

/// The jitter Rng's seed, derived from the daemon id: distinct daemons
/// must not retry in lockstep after a shared outage.
std::uint64_t backoffSeed(const DaemonConfig& config) {
  return config.daemon_id * 0x9E3779B97F4A7C15ull + 1;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      thresholds_(config_.dclas.thresholds()),
      backoff_rng_(backoffSeed(config_)) {
  next_backoff_.store(config_.reconnect_interval, std::memory_order_relaxed);
  endpoints_ = config_.coordinator_ports;
  if (endpoints_.empty()) endpoints_.push_back(config_.coordinator_port);
  registerMetrics();
}

void Daemon::registerMetrics() {
  registerRobustnessStats(metrics_, stats_, "aalo_daemon");
  net::registerConnMetrics(metrics_, conn_metrics_, "aalo_daemon");
  scratch_reuse_ = &metrics_.counter("aalo_daemon_encode_scratch_reuse_total",
                                     "Outgoing frames encoded into the reused buffer");
  metrics_.attachGauge("aalo_daemon_epoch", "Last schedule epoch applied",
                       [this] { return static_cast<double>(lastEpoch()); });
  metrics_.attachGauge("aalo_daemon_connected",
                       "1 when the socket is up and the schedule fresh",
                       [this] { return connected() ? 1.0 : 0.0; });
  metrics_.attachGauge("aalo_daemon_local_coflows",
                       "Coflows with locally accounted bytes", [this] {
                         std::lock_guard lock(mutex_);
                         return static_cast<double>(local_sent_.size());
                       });
}

Daemon::~Daemon() { stop(); }

void Daemon::growBackoff() {
  // Decorrelated jitter: independent of other daemons' retry phases and
  // spreads exponentially up to the cap.
  const util::Seconds base = config_.reconnect_interval;
  const util::Seconds cap = std::max(base, config_.reconnect_max_backoff);
  next_backoff_.store(
      std::min(cap, backoff_rng_.uniform(
                        base, next_backoff_.load(std::memory_order_relaxed) * 3)),
      std::memory_order_relaxed);
}

void Daemon::rotateEndpoint() {
  if (endpoints_.size() < 2) return;
  endpoint_index_.fetch_add(1, std::memory_order_relaxed);
  stats_.endpoint_failovers.fetch_add(1, std::memory_order_relaxed);
}

bool Daemon::tryConnect() {
  stats_.reconnect_attempts.fetch_add(1, std::memory_order_relaxed);
  const std::uint16_t port =
      endpoints_[endpoint_index_.load(std::memory_order_relaxed) %
                 endpoints_.size()];
  net::Fd fd;
  try {
    fd = net::connectTcp(port);
  } catch (const std::system_error&) {
    rotateEndpoint();  // Try the next coordinator on the next attempt.
    return false;      // Coordinator not (yet) back; retry later.
  }
  connection_ = std::make_unique<net::Connection>(
      loop_, std::move(fd), [this](net::Buffer& payload) { onMessage(payload); },
      [this] {
        socket_connected_.store(false, std::memory_order_relaxed);
        if (!synced_since_connect_) {
          // The dial "succeeded" but the connection died before a single
          // schedule applied — a crash-looping (accept-then-close) or dead
          // coordinator. Keep backing off (the backoff only resets after a
          // successful resync) and try the next endpoint.
          growBackoff();
          rotateEndpoint();
        }
        AALO_LOG_WARN << "daemon " << config_.daemon_id
                      << ": lost coordinator; data path falls back to fair sharing";
        scheduleReconnect();
      },
      &conn_metrics_);
  if (config_.send_queue_max > 0) {
    connection_->setSendQueueLimit(4 * config_.send_queue_max);
  }
  // Fresh connection: expect epochs from scratch (the coordinator may have
  // restarted and reset its round counter) and give the schedule a full
  // staleness budget before degrading.
  {
    std::lock_guard lock(mutex_);
    schedule_.restartChain();
  }
  removed_writing_.clear();
  missed_schedules_.clear();
  // The coordinator may be a restarted instance that knows nothing: the
  // first report must re-teach it every absolute size (§3.2).
  force_full_report_ = true;
  reports_since_resync_ = 0;
  synced_since_connect_ = false;
  last_broadcast_ = net::EventLoop::Clock::now();
  socket_connected_.store(true, std::memory_order_relaxed);
  schedule_fresh_.store(true, std::memory_order_relaxed);
  stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  sendHello();
  return true;
}

void Daemon::scheduleReconnect() {
  if (config_.reconnect_interval <= 0 ||
      !running_.load(std::memory_order_relaxed)) {
    return;
  }
  loop_.callAfter(toNanos(next_backoff_.load(std::memory_order_relaxed)), [this] {
    if (!running_.load(std::memory_order_relaxed)) return;
    if (socket_connected_.load(std::memory_order_relaxed)) return;
    // Drop the dead connection on the loop thread, then retry. Local
    // sizes are intentionally kept: the coordinator re-learns everything
    // from the next size report (§3.2).
    connection_.reset();
    if (!tryConnect()) {
      growBackoff();
      scheduleReconnect();
    }
  });
}

void Daemon::start() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (running_.exchange(true)) return;
  bool dialed = false;
  for (std::size_t i = 0; i < endpoints_.size() && !dialed; ++i) {
    dialed = tryConnect();  // Failure rotates to the next endpoint.
  }
  if (!dialed) {
    running_.store(false, std::memory_order_relaxed);
    throw std::system_error(ECONNREFUSED, std::generic_category(),
                            "Daemon: cannot reach coordinator");
  }
  scheduleTick();
  thread_ = std::thread([this] { loop_.run(); });
}

void Daemon::stop() {
  // Serialize racing stop() calls (and stop() vs destructor): every caller
  // returns only after the loop thread is joined and the socket is gone.
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  connection_.reset();
  socket_connected_.store(false, std::memory_order_relaxed);
  schedule_fresh_.store(false, std::memory_order_relaxed);
}

void Daemon::sendHello() {
  net::Message hello;
  hello.type = net::MessageType::kHello;
  hello.daemon_id = config_.daemon_id;
  net::Buffer out;
  net::encodeMessage(hello, out);
  connection_->sendFrame(out);
}

void Daemon::scheduleTick() {
  loop_.callAfter(toNanos(config_.sync_interval), [this] {
    sendSizeReport();
    checkScheduleFreshness();
    if (running_.load(std::memory_order_relaxed)) scheduleTick();
  });
}

void Daemon::checkScheduleFreshness() {
  if (config_.stale_after_intervals <= 0) return;
  if (!socket_connected_.load(std::memory_order_relaxed)) return;
  if (!schedule_fresh_.load(std::memory_order_relaxed)) return;
  const auto budget =
      toNanos(config_.sync_interval * config_.stale_after_intervals);
  if (net::EventLoop::Clock::now() - last_broadcast_ > budget) {
    // §3.2: enforcing a dead schedule is worse than none. Degrade to
    // local-only mode (every coflow back to the highest-priority queue,
    // writers unthrottled) until broadcasts resume.
    schedule_fresh_.store(false, std::memory_order_relaxed);
    stats_.stale_transitions.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "daemon " << config_.daemon_id
                  << ": no schedule for " << config_.stale_after_intervals
                  << " intervals; entering local-only mode";
    if (endpoints_.size() > 1 && connection_ && !connection_->closed()) {
      // The socket is up but no (acceptable) broadcast arrives — a hung or
      // deposed coordinator. With standbys configured, abandon it and dial
      // the next endpoint instead of idling in local-only mode. We are in
      // the tick callback, not the connection's own chain, but events for
      // its fd may already be queued in this dispatch batch: defer the
      // destruction exactly like the coordinator's dropPeer does.
      rotateEndpoint();
      auto doomed = std::move(connection_);
      loop_.post([conn = std::shared_ptr<net::Connection>(std::move(doomed))] {});
      socket_connected_.store(false, std::memory_order_relaxed);
      scheduleReconnect();
    }
  }
}

void Daemon::sendSizeReport() {
  if (!connection_ || connection_->closed()) return;
  if (config_.send_queue_max > 0 &&
      connection_->pendingBytes() > config_.send_queue_max) {
    // The coordinator is not draining us. Don't pile frames onto the queue:
    // skip this report entirely. report_dirty_ is left intact and sizes
    // are absolute, so the next report that goes out carries everything —
    // shedding coalesces, it never loses.
    stats_.reports_shed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  net::Message report;
  report.type = net::MessageType::kSizeReport;
  report.daemon_id = config_.daemon_id;
  const bool full = force_full_report_ ||
                    (config_.resync_intervals > 0 &&
                     reports_since_resync_ + 1 >= config_.resync_intervals);
  {
    std::lock_guard lock(mutex_);
    // Echo the last applied epoch so the coordinator can spot a one-way
    // link: our reports arriving while this echo never advances means its
    // broadcasts are not reaching us.
    report.epoch = schedule_.epoch();
    if (full) {
      report.sizes.reserve(local_sent_.size());
      for (const auto& [id, bytes] : local_sent_) {
        report.sizes.push_back(net::CoflowSize{id, bytes});
      }
    } else {
      report.sizes.reserve(report_dirty_.size());
      for (const auto& id : report_dirty_) {
        // A dirty coflow may have been pruned since (completed): its
        // absence from the report is exactly what the coordinator's
        // tombstone expects.
        const auto it = local_sent_.find(id);
        if (it != local_sent_.end()) {
          report.sizes.push_back(net::CoflowSize{id, it->second});
        }
      }
    }
    report_dirty_.clear();
  }
  // Nothing changed locally: suppress the frame entirely and let the
  // keepalive cadence (kReportKeepaliveIntervals) carry liveness + the
  // epoch echo.
  if (!full && report.sizes.empty() &&
      ++ticks_since_report_ < kReportKeepaliveIntervals) {
    stats_.reports_suppressed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ticks_since_report_ = 0;
  if (full) {
    force_full_report_ = false;
    reports_since_resync_ = 0;
    stats_.resync_reports.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++reports_since_resync_;
    stats_.delta_reports.fetch_add(1, std::memory_order_relaxed);
  }
  encode_scratch_.clear();
  net::encodeMessage(report, encode_scratch_);
  scratch_reuse_->fetch_add(1);
  connection_->sendFrame(encode_scratch_);
}

void Daemon::onMessage(net::Buffer& payload) {
  net::Message& message = inbound_;
  try {
    net::decodeMessage(payload, message);
  } catch (const std::exception& e) {
    stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_WARN << "daemon " << config_.daemon_id << ": bad frame: " << e.what();
    return;
  }
  if (message.type != net::MessageType::kScheduleUpdate &&
      message.type != net::MessageType::kScheduleDelta) {
    return;
  }
  ScheduleMirror::Outcome outcome;
  std::uint64_t applied_epoch = 0;
  bool request_due = false;
  removed_scratch_.clear();
  {
    std::lock_guard lock(mutex_);
    const std::uint64_t fence = schedule_.fence();
    outcome = schedule_.apply(message, &removed_scratch_);
    applied_epoch = schedule_.epoch();
    // A new coordinator incarnation (promoted standby or fenced restart)
    // may not have heard our absolute sizes yet — re-teach it (§3.2).
    if (schedule_.fence() > fence) force_full_report_ = true;
    if (outcome == ScheduleMirror::Outcome::kGap ||
        outcome == ScheduleMirror::Outcome::kDigestMismatch) {
      request_due = schedule_.snapshotRequestDue(message.epoch);
    }
  }
  // last_broadcast_ (staleness) is refreshed by every frame that proves
  // the path alive, except a deposed primary's (so a daemon stuck on it
  // still goes stale and rotates) and an un-appliable gap (so a daemon fed
  // only those still degrades to local-only mode).
  switch (outcome) {
    case ScheduleMirror::Outcome::kStaleFence:
      stats_.stale_fence_ignored.fetch_add(1, std::memory_order_relaxed);
      return;
    case ScheduleMirror::Outcome::kOldEpoch:
      last_broadcast_ = net::EventLoop::Clock::now();
      stats_.old_epoch_ignored.fetch_add(1, std::memory_order_relaxed);
      return;
    case ScheduleMirror::Outcome::kGap:
      stats_.schedule_gaps.fetch_add(1, std::memory_order_relaxed);
      if (request_due) requestSnapshot(applied_epoch);
      return;
    case ScheduleMirror::Outcome::kDigestMismatch:
      // Applied, but our copy had diverged: repair it like a gap.
      stats_.schedule_digest_mismatches.fetch_add(1, std::memory_order_relaxed);
      if (request_due) requestSnapshot(applied_epoch);
      break;
    case ScheduleMirror::Outcome::kApplied:
      break;
  }
  last_broadcast_ = net::EventLoop::Clock::now();
  if (message.type == net::MessageType::kScheduleDelta) {
    stats_.schedule_deltas_applied.fetch_add(1, std::memory_order_relaxed);
  }
  // Every coflow a frame removes was in the schedule the previous applied
  // frame left, so on a connection that has applied one it was seen
  // scheduled here. Removals of a frame whose digest failed are not
  // trusted; the missed-schedule budget collects those coflows instead.
  const bool removals_seen = synced_since_connect_ &&
                             outcome == ScheduleMirror::Outcome::kApplied;
  if (!synced_since_connect_) {
    // First schedule applied on this connection: the coordinator is
    // genuinely serving us, so the reconnect backoff may reset. Resetting
    // any earlier (e.g. on a successful dial) lets an accept-then-crash
    // coordinator keep every daemon redialing at the base rate forever.
    synced_since_connect_ = true;
    next_backoff_.store(config_.reconnect_interval, std::memory_order_relaxed);
  }
  {
    std::lock_guard lock(mutex_);
    pruneCompletedLocked(removals_seen);
  }
  last_epoch_.store(message.epoch, std::memory_order_relaxed);
  if (!schedule_fresh_.exchange(true, std::memory_order_relaxed)) {
    stats_.stale_recoveries.fetch_add(1, std::memory_order_relaxed);
    AALO_LOG_INFO << "daemon " << config_.daemon_id
                  << ": schedule fresh again; leaving local-only mode";
  }
}

void Daemon::requestSnapshot(std::uint64_t applied_epoch) {
  // The snapshot repairs the schedule; the full report re-teaches a
  // coordinator that may have restarted (§3.2).
  force_full_report_ = true;
  if (!connection_ || connection_->closed()) return;
  net::Message request;
  request.type = net::MessageType::kSnapshotRequest;
  request.daemon_id = config_.daemon_id;
  request.epoch = applied_epoch;
  encode_scratch_.clear();
  net::encodeMessage(request, encode_scratch_);
  scratch_reuse_->fetch_add(1);
  connection_->sendFrame(encode_scratch_);
}

void Daemon::pruneCompletedLocked(bool removals_seen) {
  // A coflow this connection has seen scheduled that has now vanished was
  // unregistered at the coordinator: drop its local accounting so reports
  // shrink and the coordinator's tombstone for it can eventually be GC'd.
  // Coflows with a live local writer are kept until it ends — they are
  // not done here, and their reports keep the tombstone alive, which is
  // correct.
  const auto prune = [&](const coflow::CoflowId& id) {
    missed_schedules_.erase(id);
    if (local_sent_.erase(id) != 0) {
      stats_.completed_coflows_pruned.fetch_add(1, std::memory_order_relaxed);
    }
  };
  for (auto it = removed_writing_.begin(); it != removed_writing_.end();) {
    const bool scheduled = schedule_.find(*it) != nullptr;
    if (!scheduled && active_writers_.contains(*it)) {
      ++it;
      continue;
    }
    // Done, or back in the schedule (a later removal reports it again).
    if (!scheduled) prune(*it);
    it = removed_writing_.erase(it);
  }
  if (removals_seen) {
    for (const auto& id : removed_scratch_) {
      if (active_writers_.contains(id)) {
        removed_writing_.insert(id);
      } else {
        prune(id);
      }
    }
  }
  // A locally accounted coflow we have *never* seen scheduled: a registered
  // coflow appears in every broadcast (at zero global bytes if need be), so
  // one that stays absent for many consecutive applied schedules while we
  // keep reporting it was unregistered before its first schedule reached
  // us. The round budget keeps in-flight first reports — and a freshly
  // restarted coordinator that has not heard our absolute sizes yet — from
  // triggering a premature prune.
  for (auto it = local_sent_.begin(); it != local_sent_.end();) {
    const coflow::CoflowId id = it->first;
    if (schedule_.find(id) || active_writers_.contains(id)) {
      missed_schedules_.erase(id);
      ++it;
      continue;
    }
    if (++missed_schedules_[id] >= kMissedSchedulesBeforePrune) {
      missed_schedules_.erase(id);
      it = local_sent_.erase(it);
      stats_.completed_coflows_pruned.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
}

void Daemon::reportBytes(coflow::CoflowId id, util::Bytes delta) {
  std::lock_guard lock(mutex_);
  local_sent_[id] += delta;
  report_dirty_.insert(id);
}

void Daemon::writerActive(coflow::CoflowId id, bool active) {
  std::lock_guard lock(mutex_);
  int& count = active_writers_[id];
  count += active ? 1 : -1;
  if (count <= 0) active_writers_.erase(id);
}

int Daemon::localQueueLocked(coflow::CoflowId id) const {
  const auto it = local_sent_.find(id);
  const util::Bytes bytes = it == local_sent_.end() ? 0 : it->second;
  return sched::queueForSize(thresholds_, bytes);
}

int Daemon::queueOf(coflow::CoflowId id) const {
  std::lock_guard lock(mutex_);
  return queueLocked(id);
}

int Daemon::queueLocked(coflow::CoflowId id) const {
  // Both available signals lower-bound the coflow's true attained service,
  // which only grows: the last schedule entry (global bytes at broadcast
  // time) and local D-CLAS over locally attained bytes (§3.2). Taking the
  // max means a coflow is never promoted above a queue it already left —
  // not by an outage, not by a stale schedule surviving a reconnect, and
  // not by a freshly restarted coordinator that has not heard the absolute
  // sizes yet. A genuinely new coflow has neither signal: queue 0.
  const int local = localQueueLocked(id);
  const net::ScheduleEntry* entry = schedule_.find(id);
  return entry ? std::max(local, static_cast<int>(entry->queue)) : local;
}

std::uint64_t Daemon::fenceSeen() const {
  std::lock_guard lock(mutex_);
  return schedule_.fence();
}

bool Daemon::isOn(coflow::CoflowId id) const {
  // Local-only mode: a dead schedule's OFF signals must not gate anyone.
  if (!connected()) return true;
  std::lock_guard lock(mutex_);
  const net::ScheduleEntry* entry = schedule_.find(id);
  return entry == nullptr || entry->on;
}

util::Rate Daemon::rateFor(coflow::CoflowId id) const {
  // Fault tolerance (§3.2): without a live coordinator — socket down *or*
  // schedule stale — the client library falls back to plain TCP sharing.
  if (!connected()) {
    return std::numeric_limits<util::Rate>::infinity();
  }

  std::lock_guard lock(mutex_);
  if (!active_writers_.contains(id)) return 0;
  // §6.2: coflows the coordinator switched OFF must not send at all, and
  // must not absorb any queue share either.
  const auto off = [this](coflow::CoflowId c) {
    const net::ScheduleEntry* entry = schedule_.find(c);
    return entry != nullptr && !entry->on;
  };
  if (off(id)) return 0;

  // Every active (and ON) coflow counts in the queue queueOf() reports —
  // never above one its local bytes already left. Occupied queues share
  // the uplink by weight; within `id`'s queue the FIFO head takes (nearly)
  // the queue's whole share. Unlike the simulator, the runtime cannot
  // instantly re-assign rates when the head stalls, so non-head coflows
  // keep a 10 % trickle — a local starvation-freedom guarantee on top of
  // the queue weights.
  const int k = std::max(config_.num_queues, 1);
  const auto queue = [&](coflow::CoflowId c) {
    return std::clamp(queueLocked(c), 0, k - 1);
  };
  const int mine = queue(id);
  std::vector<bool> occupied(static_cast<std::size_t>(k));
  std::size_t members = 0;  // Of `mine`, `id` included.
  coflow::CoflowId head = id;
  const coflow::CoflowIdFifoLess fifo_less;
  for (const auto& [coflow_id, writers] : active_writers_) {
    if (off(coflow_id)) continue;
    const int q = queue(coflow_id);
    occupied[static_cast<std::size_t>(q)] = true;
    if (q != mine) continue;
    ++members;
    if (fifo_less(coflow_id, head)) head = coflow_id;
  }
  double total_weight = 0;
  for (int q = 0; q < k; ++q) {
    if (occupied[static_cast<std::size_t>(q)]) total_weight += k - q;
  }
  const util::Rate queue_share =
      config_.uplink_capacity * static_cast<double>(k - mine) / total_weight;
  if (members == 1) return queue_share;
  if (head == id) return queue_share * 0.9;
  return queue_share * 0.1 / static_cast<double>(members - 1);
}

}  // namespace aalo::runtime
