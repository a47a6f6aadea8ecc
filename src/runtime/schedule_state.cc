#include "runtime/schedule_state.h"

#include <algorithm>

#include "sched/dclas.h"

namespace aalo::runtime {

namespace {

/// Deterministic wire order for delta payloads: same key the schedule
/// itself is sorted by.
bool entryLess(const net::ScheduleEntry& a, const net::ScheduleEntry& b) {
  if (a.queue != b.queue) return a.queue < b.queue;
  return coflow::CoflowIdFifoLess{}(a.id, b.id);
}

/// Entries whose buckets an order walk prefetches ahead of the one it
/// reads: enough misses in flight to cover a memory round trip.
constexpr std::size_t kPrefetchAhead = 32;

/// Stale order entries tolerated beyond one per live coflow before the
/// runs are compacted.
constexpr std::size_t kStaleSlack = 64;

}  // namespace

ScheduleState::ScheduleState(std::vector<util::Bytes> thresholds,
                             std::size_t max_on_coflows)
    : thresholds_(std::move(thresholds)),
      max_on_(max_on_coflows),
      order_(thresholds_.size() + 1) {}

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
  enqueue(b);
  markDirty(b);
}

void ScheduleState::moveToQueue(Bucket& b, int queue) {
  if (queue == b.queue) return;
  b.queue = queue;  // The old queue's entry is stale from here on.
  enqueue(b);
  markDirty(b);
}

ScheduleState::Bucket* ScheduleState::liveBucket(const OrderEntry& e,
                                                 int queue) {
  std::size_t i = e.slot;
  // An empty slot holds the key {0, 0} too, so it never confirms a hint.
  if (i >= table_.size() || table_[i].flags == 0 ||
      table_[i].external != e.external || table_[i].internal != e.internal) {
    // Moved by a grow() or an erase's backward shift since.
    i = find(keyOf(e));
    if (i == kNone) return nullptr;
  }
  Bucket& b = table_[i];
  const bool live =
      (b.flags & kLive) && b.queue == queue && b.stamp == e.stamp;
  return live ? &b : nullptr;
}

void ScheduleState::sortPending(QueueOrder& order) {
  std::vector<OrderEntry>& pending = order.pending;
  if (order.sorted == pending.size()) return;
  const auto mid = pending.begin() + static_cast<std::ptrdiff_t>(order.sorted);
  std::sort(mid, pending.end(), entryIdLess);
  std::inplace_merge(pending.begin(), mid, pending.end(), entryIdLess);
  order.sorted = pending.size();
}

void ScheduleState::mergePending(QueueOrder& order) {
  std::vector<OrderEntry>& run = order.run;
  std::vector<OrderEntry>& pending = order.pending;
  if (pending.empty()) return;
  sortPending(order);
  // Merge from the back, in place: only the run's tail above the smallest
  // buffered id moves, once per merge rather than once per entry.
  std::size_t r = run.size();
  std::size_t p = pending.size();
  run.resize(r + p);
  for (std::size_t out = run.size(); p > 0;) {
    if (r > order.head && entryIdLess(pending[p - 1], run[r - 1])) {
      run[--out] = run[--r];
    } else {
      run[--out] = pending[--p];
    }
  }
  pending.clear();
  order.sorted = 0;
}

template <typename Visit>
void ScheduleState::walkOrder(Visit&& visit) {
  // Every stale entry is dropped below, so the stamps can start over.
  next_stamp_ = 1;
  for (std::size_t q = 0; q < order_.size(); ++q) {
    mergePending(order_[q]);
    std::vector<OrderEntry>& run = order_[q].run;
    const std::size_t head = order_[q].head;
    const std::size_t n = run.size();
    const auto prefetchAt = [&](std::size_t i) {
      if (run[i].slot < table_.size()) {
        __builtin_prefetch(&table_[run[i].slot], 1);
      }
    };
    for (std::size_t i = head; i < std::min(n, head + kPrefetchAhead); ++i) {
      prefetchAt(i);
    }
    std::size_t keep = 0;
    for (std::size_t i = head; i < n; ++i) {
      if (i + kPrefetchAhead < n) prefetchAt(i + kPrefetchAhead);
      const OrderEntry e = run[i];
      // Equal ids sit together; once one is kept the rest are stale (and
      // the renumbered bucket stamp must not meet their old stamps).
      if (keep > 0 && keyOf(run[keep - 1]) == keyOf(e)) continue;
      Bucket* b = liveBucket(e, static_cast<int>(q));
      if (b == nullptr) continue;
      b->stamp = next_stamp_++;
      run[keep++] = OrderEntry{.external = e.external,
                               .internal = e.internal,
                               .stamp = b->stamp,
                               .slot = slotOf(*b)};
      visit(*b);
    }
    run.resize(keep);
    order_[q].head = 0;
  }
  order_entries_ = live_;
}

void ScheduleState::enqueue(Bucket& b) {
  b.stamp = next_stamp_++;
  const OrderEntry entry{.external = b.external,
                         .internal = b.internal,
                         .stamp = b.stamp,
                         .slot = slotOf(b)};
  QueueOrder& order = order_[static_cast<std::size_t>(b.queue)];
  if (order.run.size() == order.head ||
      !entryIdLess(entry, order.run.back())) {
    order.run.push_back(entry);
  } else {
    order.pending.push_back(entry);
  }
  // Compacting renumbers the stamps from 1, so the counter reaches its
  // limit only if ~4G moves pass without one; compact then as well.
  if (++order_entries_ > 2 * live_ + kStaleSlack ||
      next_stamp_ == UINT32_MAX) {
    walkOrder([](const Bucket&) {});
  }
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
    --live_;  // Its order entry goes stale with the live bit.
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

void ScheduleState::refreshOnSet() {
  if (max_on_ == 0) return;
  // No table insert or erase happens below, so slots stay valid throughout.
  std::vector<std::size_t> now_on;
  now_on.reserve(max_on_);
  std::vector<std::size_t> live_run;  // Run indices of live entries read.
  // Walk the schedule's head: each queue it reaches is its run and its
  // sorted insert buffer read side by side, in FIFO-id order.
  for (std::size_t q = 0; q < order_.size() && now_on.size() < max_on_; ++q) {
    QueueOrder& order = order_[q];
    sortPending(order);
    std::vector<OrderEntry>& run = order.run;
    const std::vector<OrderEntry>& pending = order.pending;
    std::size_t r = order.head;
    live_run.clear();
    for (std::size_t p = 0;
         now_on.size() < max_on_ && (r < run.size() || p < pending.size());) {
      const bool from_run =
          p == pending.size() ||
          (r < run.size() && !entryIdLess(pending[p], run[r]));
      Bucket* b = liveBucket(from_run ? run[r] : pending[p],
                             static_cast<int>(q));
      if (from_run && b != nullptr) live_run.push_back(r);
      ++(from_run ? r : p);
      if (b == nullptr) continue;
      b->flags |= kOnNext;
      now_on.push_back(slotOf(*b));
    }
    // Drop the stale run entries read: pack the live ones, last first,
    // against r and move the head up to them. Nothing past r moves.
    std::size_t head = r;
    for (auto it = live_run.rbegin(); it != live_run.rend(); ++it) {
      run[--head] = run[*it];
    }
    order.head = head;
  }
  for (const auto& id : on_ids_) {
    const std::size_t i = find(id);
    if (i == kNone) continue;
    Bucket& b = table_[i];
    if ((b.flags & kOnNext) || !(b.flags & kOn)) continue;
    b.flags &= ~kOn;
    markDirty(b);
  }
  on_ids_.clear();
  for (const std::size_t i : now_on) {
    Bucket& b = table_[i];
    b.flags &= ~kOnNext;
    if (!(b.flags & kOn)) {
      b.flags |= kOn;
      markDirty(b);
    }
    on_ids_.push_back(keyOf(b));
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

void ScheduleState::snapshotEntries(std::vector<net::ScheduleEntry>& out) {
  out.clear();
  out.reserve(live_);
  walkOrder([&](const Bucket& b) {
    out.push_back(net::ScheduleEntry{
        .id = keyOf(b),
        .global_bytes = b.bytes,
        .queue = b.queue,
        .on = max_on_ == 0 || out.size() < max_on_});
  });
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
