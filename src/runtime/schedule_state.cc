#include "runtime/schedule_state.h"

#include <algorithm>
#include <optional>

#include "sched/dclas.h"

namespace aalo::runtime {

namespace {

/// The schedule order, (queue, FIFO id): snapshots, the ON set and delta
/// payloads (so the wire bytes are deterministic) all follow it.
bool entryLess(const net::ScheduleEntry& a, const net::ScheduleEntry& b) {
  if (a.queue != b.queue) return a.queue < b.queue;
  return coflow::CoflowIdFifoLess{}(a.id, b.id);
}

}  // namespace

ScheduleState::ScheduleState(std::vector<util::Bytes> thresholds,
                             std::size_t max_on_coflows)
    : thresholds_(std::move(thresholds)), max_on_(max_on_coflows) {}

// --- the flat table ---------------------------------------------------------

std::size_t ScheduleState::homeOf(const coflow::CoflowId& id) const {
  // murmur3's 64-bit finalizer over both key halves.
  std::uint64_t h = static_cast<std::uint64_t>(id.external) *
                        0x9e3779b97f4a7c15ULL ^
                    static_cast<std::uint32_t>(id.internal);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h) & (table_.size() - 1);
}

std::size_t ScheduleState::find(const coflow::CoflowId& id) const {
  if (table_.empty()) return kNone;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = homeOf(id);; i = (i + 1) & mask) {
    const Bucket& b = table_[i];
    if (b.flags == 0) return kNone;
    if (b.external == id.external && b.internal == id.internal) return i;
  }
}

std::size_t ScheduleState::findOrInsert(const coflow::CoflowId& id) {
  if (2 * (used_ + 1) > table_.size()) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = homeOf(id);
  for (;; i = (i + 1) & mask) {
    const Bucket& b = table_[i];
    if (b.flags == 0) break;
    if (b.external == id.external && b.internal == id.internal) return i;
  }
  Bucket& b = table_[i];
  b.external = id.external;
  b.internal = id.internal;
  b.flags = kUsed;
  ++used_;
  return i;
}

void ScheduleState::grow() {
  std::vector<Bucket> old = std::move(table_);
  table_.assign(std::max<std::size_t>(16, 2 * old.size()), Bucket{});
  const std::size_t mask = table_.size() - 1;
  for (const Bucket& b : old) {
    if (b.flags == 0) continue;
    std::size_t i = homeOf(keyOf(b));
    while (table_[i].flags != 0) i = (i + 1) & mask;
    table_[i] = b;
  }
}

void ScheduleState::eraseAt(std::size_t slot) {
  // Backward-shift deletion: pull each later member of the run into the
  // hole unless its home lies cyclically in (hole, member].
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask; table_[j].flags != 0;
       j = (j + 1) & mask) {
    const std::size_t home = homeOf(keyOf(table_[j]));
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    table_[hole] = table_[j];
    hole = j;
  }
  table_[hole] = Bucket{};
  --used_;
}

// --- reporters ---------------------------------------------------------------

double& ScheduleState::reportOf(Bucket& b, std::uint64_t daemon_id) {
  if (!(b.flags & kReported)) {
    b.flags |= kReported;
    b.daemon = daemon_id;
    b.reported = 0;
    noteReporter(daemon_id, keyOf(b));
    return b.reported;
  }
  if (b.daemon == daemon_id) return b.reported;
  for (std::uint32_t r = b.more; r != 0; r = reporters_[r - 1].next) {
    if (reporters_[r - 1].daemon == daemon_id) return reporters_[r - 1].bytes;
  }
  std::uint32_t r = free_reporter_;
  if (r != 0) {
    free_reporter_ = reporters_[r - 1].next;
  } else {
    reporters_.emplace_back();
    r = static_cast<std::uint32_t>(reporters_.size());
  }
  reporters_[r - 1] = Reporter{.daemon = daemon_id, .bytes = 0, .next = b.more};
  b.more = r;
  noteReporter(daemon_id, keyOf(b));
  return reporters_[r - 1].bytes;
}

bool ScheduleState::takeReport(Bucket& b, std::uint64_t daemon_id,
                               double& bytes) {
  if (!(b.flags & kReported)) return false;
  if (b.daemon == daemon_id) {
    bytes = b.reported;
    if (b.more == 0) {
      b.flags &= ~kReported;
      return true;
    }
    // Promote the first side-list reporter inline.
    const std::uint32_t r = b.more;
    b.daemon = reporters_[r - 1].daemon;
    b.reported = reporters_[r - 1].bytes;
    b.more = reporters_[r - 1].next;
    reporters_[r - 1].next = free_reporter_;
    free_reporter_ = r;
    return true;
  }
  for (std::uint32_t* link = &b.more; *link != 0;
       link = &reporters_[*link - 1].next) {
    const std::uint32_t r = *link;
    if (reporters_[r - 1].daemon != daemon_id) continue;
    bytes = reporters_[r - 1].bytes;
    *link = reporters_[r - 1].next;
    reporters_[r - 1].next = free_reporter_;
    free_reporter_ = r;
    return true;
  }
  return false;
}

void ScheduleState::releaseReporters(Bucket& b) {
  while (b.more != 0) {
    const std::uint32_t r = b.more;
    b.more = reporters_[r - 1].next;
    reporters_[r - 1].next = free_reporter_;
    free_reporter_ = r;
  }
  b.flags &= ~kReported;
}

void ScheduleState::noteReporter(std::uint64_t daemon_id,
                                 const coflow::CoflowId& id) {
  DaemonSlots& slots = daemons_[daemon_id];
  slots.ids.push_back(id);
  if (slots.ids.size() < slots.compact_at) return;
  // Keep only coflows this daemon still has a report on, once each.
  std::sort(slots.ids.begin(), slots.ids.end());
  slots.ids.erase(std::unique(slots.ids.begin(), slots.ids.end()),
                  slots.ids.end());
  std::erase_if(slots.ids, [&](const coflow::CoflowId& cid) {
    const std::size_t i = find(cid);
    if (i == kNone) return true;
    const Bucket& b = table_[i];
    if (!(b.flags & kReported)) return true;
    if (b.daemon == daemon_id) return false;
    for (std::uint32_t r = b.more; r != 0; r = reporters_[r - 1].next) {
      if (reporters_[r - 1].daemon == daemon_id) return false;
    }
    return true;
  });
  slots.compact_at = std::max<std::size_t>(64, 2 * slots.ids.size());
}

// --- schedule upkeep -------------------------------------------------------

void ScheduleState::markDirty(Bucket& b) {
  if (b.flags & kDirty) return;
  b.flags |= kDirty;
  dirty_.push_back(keyOf(b));
}

void ScheduleState::makeLive(Bucket& b) {
  // Starts OFF under a finite ON budget; refreshOnSet() flips it on if it
  // fits — the appearance itself already marks it dirty.
  b.flags = static_cast<std::uint16_t>(
      (b.flags & ~(kOn | kSent | kSentOn)) | kLive | (max_on_ == 0 ? kOn : 0));
  b.bytes = 0;
  b.queue = 0;
  b.sent_queue = 0;
  ++live_;
  markDirty(b);
}

void ScheduleState::moveToQueue(Bucket& b, int queue) {
  if (queue == b.queue) return;
  b.queue = queue;
  markDirty(b);
}

void ScheduleState::registerCoflow(const coflow::CoflowId& id) {
  Bucket& b = table_[findOrInsert(id)];
  if (!(b.flags & kRegistered)) {
    b.flags |= kRegistered;
    ++registered_;
  }
  if (!(b.flags & kLive)) makeLive(b);
}

void ScheduleState::removeAt(std::size_t slot) {
  Bucket& b = table_[slot];
  if (b.flags & kRegistered) --registered_;
  if (b.flags & kLive) {
    --live_;
    if (b.flags & kSent) {
      removed_.push_back(keyOf(b));
      digest_ -= sentHash(b);
    }
  }
  releaseReporters(b);
  b.flags &= kUsed | kTombstoned;
  if (!(b.flags & kTombstoned)) eraseAt(slot);
}

void ScheduleState::unregisterCoflow(const coflow::CoflowId& id) {
  const std::size_t i = find(id);
  if (i != kNone) removeAt(i);
}

void ScheduleState::applyAt(Bucket& b, std::uint64_t daemon_id, double bytes) {
  if (!(b.flags & kLive)) makeLive(b);
  double& stored = reportOf(b, daemon_id);
  const double diff = bytes - stored;
  stored = bytes;
  if (diff == 0) return;
  b.bytes += diff;
  moveToQueue(b, sched::queueForSize(thresholds_,
                                     static_cast<util::Bytes>(b.bytes)));
}

void ScheduleState::applySize(std::uint64_t daemon_id,
                              const coflow::CoflowId& id, double bytes) {
  applyAt(table_[findOrInsert(id)], daemon_id, bytes);
}

bool ScheduleState::applyReport(std::uint64_t daemon_id,
                                const coflow::CoflowId& id, double bytes,
                                TimePoint now) {
  Bucket& b = table_[findOrInsert(id)];
  if (b.flags & kTombstoned) {
    b.mention = now;
    return false;
  }
  applyAt(b, daemon_id, bytes);
  return true;
}

void ScheduleState::dropDaemon(std::uint64_t daemon_id) {
  auto it = daemons_.find(daemon_id);
  if (it == daemons_.end()) return;
  for (const coflow::CoflowId& id : it->second.ids) {
    const std::size_t i = find(id);
    if (i == kNone) continue;
    Bucket& b = table_[i];
    double bytes = 0;
    if (!takeReport(b, daemon_id, bytes)) continue;  // Stale or duplicate.
    if (!(b.flags & (kReported | kRegistered))) {
      removeAt(i);  // An orphan: the rebuild would not list it.
      continue;
    }
    b.bytes -= bytes;
    if (b.bytes < 0) b.bytes = 0;
    moveToQueue(b, sched::queueForSize(thresholds_,
                                       static_cast<util::Bytes>(b.bytes)));
  }
  daemons_.erase(it);
}

// --- tombstones ------------------------------------------------------------

void ScheduleState::tombstone(const coflow::CoflowId& id, TimePoint now) {
  Bucket& b = table_[findOrInsert(id)];
  b.mention = now;
  if (b.flags & kTombstoned) return;
  b.flags |= kTombstoned;
  ++tombstones_;
  expiry_.emplace(now, id);
}

bool ScheduleState::isTombstoned(const coflow::CoflowId& id) const {
  const std::size_t i = find(id);
  return i != kNone && (table_[i].flags & kTombstoned);
}

std::size_t ScheduleState::collectTombstones(TimePoint cutoff) {
  std::size_t collected = 0;
  while (!expiry_.empty() && expiry_.top().first < cutoff) {
    const coflow::CoflowId id = expiry_.top().second;
    expiry_.pop();
    const std::size_t i = find(id);
    if (i == kNone || !(table_[i].flags & kTombstoned)) continue;
    Bucket& b = table_[i];
    if (b.mention >= cutoff) {  // Mentioned since it was queued.
      expiry_.emplace(b.mention, id);
      continue;
    }
    b.flags &= ~kTombstoned;
    --tombstones_;
    ++collected;
    if (!(b.flags & kLive)) eraseAt(i);
  }
  return collected;
}

// --- read side -------------------------------------------------------------

double ScheduleState::globalBytes(const coflow::CoflowId& id) const {
  const std::size_t i = find(id);
  return i != kNone && (table_[i].flags & kLive) ? table_[i].bytes : 0.0;
}

std::unordered_map<coflow::CoflowId, double> ScheduleState::globalSizes()
    const {
  std::unordered_map<coflow::CoflowId, double> out;
  out.reserve(live_);
  for (const Bucket& b : table_) {
    if (b.flags & kLive) out.emplace(keyOf(b), b.bytes);
  }
  return out;
}

void ScheduleState::gatherLive(std::vector<net::ScheduleEntry>& out) const {
  for (const Bucket& b : table_) {
    if (!(b.flags & kLive)) continue;
    out.push_back(net::ScheduleEntry{
        .id = keyOf(b), .global_bytes = b.bytes, .queue = b.queue, .on = true});
  }
}

void ScheduleState::refreshOnSet() {
  // The ON set moves only with the order: a queue change or an arrival
  // (both dirty) or a departure (dirty or removed).
  if (max_on_ == 0 || (dirty_.empty() && removed_.empty())) return;
  // ON = every live coflow up to the max_on_-th in schedule order.
  std::optional<net::ScheduleEntry> last_on;
  if (live_ > max_on_) {
    std::vector<net::ScheduleEntry> live;
    live.reserve(live_);
    gatherLive(live);
    const auto last = live.begin() + static_cast<std::ptrdiff_t>(max_on_ - 1);
    std::nth_element(live.begin(), last, live.end(), entryLess);
    last_on = *last;
  }
  for (Bucket& b : table_) {
    if (!(b.flags & kLive)) continue;
    const net::ScheduleEntry e{.id = keyOf(b), .queue = b.queue};
    const bool on = !last_on || !entryLess(*last_on, e);
    if (on == ((b.flags & kOn) != 0)) continue;
    b.flags ^= kOn;
    markDirty(b);
  }
}

bool ScheduleState::buildDelta(std::vector<net::ScheduleEntry>& entries,
                               std::vector<coflow::CoflowId>& removals) {
  entries.clear();
  removals.clear();
  refreshOnSet();
  for (const auto& id : dirty_) {
    const std::size_t i = find(id);
    if (i == kNone) continue;  // Unregistered since it dirtied.
    Bucket& b = table_[i];
    if (!(b.flags & kDirty)) continue;  // Re-created: listed twice.
    b.flags &= ~kDirty;
    const bool on = (b.flags & kOn) != 0;
    // Net no-op (e.g. demoted then dropped-daemon promoted back): the
    // delta chain already announced this exact state, skip it.
    if ((b.flags & kSent) && b.queue == b.sent_queue &&
        on == ((b.flags & kSentOn) != 0)) {
      continue;
    }
    entries.push_back(net::ScheduleEntry{
        .id = id, .global_bytes = b.bytes, .queue = b.queue, .on = on});
    if (b.flags & kSent) digest_ -= sentHash(b);
    b.flags = static_cast<std::uint16_t>((b.flags & ~kSentOn) | kSent |
                                         (on ? kSentOn : 0));
    b.sent_queue = b.queue;
    digest_ += sentHash(b);
  }
  dirty_.clear();
  std::sort(entries.begin(), entries.end(), entryLess);
  removals = std::move(removed_);
  removed_.clear();
  // A coflow unregistered and re-created since the last delta is announced
  // by its entry alone: daemons apply removals after entries, so a removal
  // beside it would erase it again.
  std::erase_if(removals, [&](const coflow::CoflowId& id) {
    const std::size_t i = find(id);
    return i != kNone && (table_[i].flags & kLive);
  });
  std::sort(removals.begin(), removals.end(), coflow::CoflowIdFifoLess{});
  return !entries.empty() || !removals.empty();
}

void ScheduleState::snapshotEntries(
    std::vector<net::ScheduleEntry>& out) const {
  out.clear();
  out.reserve(live_);
  gatherLive(out);
  std::sort(out.begin(), out.end(), entryLess);
  if (max_on_ > 0) {
    for (std::size_t i = max_on_; i < out.size(); ++i) out[i].on = false;
  }
}

void ScheduleState::prefetch(const coflow::CoflowId& id) const {
  if (!table_.empty()) __builtin_prefetch(&table_[homeOf(id)], 1);
}

void ScheduleState::legacySchedule(const TombstoneFilter& tombstoned,
                                   std::vector<net::ScheduleEntry>& out)
    const {
  // Global size = sum of the stored per-daemon reports; registered
  // coflows appear even before anyone reported them.
  out.clear();
  for (const Bucket& b : table_) {
    const coflow::CoflowId id = keyOf(b);
    bool listed = (b.flags & kRegistered) != 0;
    double bytes = 0;
    if ((b.flags & kReported) && !(tombstoned && tombstoned(id))) {
      listed = true;
      bytes += b.reported;
      for (std::uint32_t r = b.more; r != 0; r = reporters_[r - 1].next) {
        bytes += reporters_[r - 1].bytes;
      }
    }
    if (!listed) continue;
    out.push_back(net::ScheduleEntry{
        .id = id,
        .global_bytes = bytes,
        .queue = sched::queueForSize(thresholds_,
                                     static_cast<util::Bytes>(bytes)),
        .on = true});
  }
  std::sort(out.begin(), out.end(), entryLess);
  if (max_on_ > 0) {
    for (std::size_t i = max_on_; i < out.size(); ++i) out[i].on = false;
  }
}

}  // namespace aalo::runtime
