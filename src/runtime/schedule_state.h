// Incrementally maintained global schedule for the Aalo coordinator.
//
// The pre-delta coordinator did O(daemons x coflows) work every Δ: rebuild
// the global size map from every stored report, re-discretize every coflow,
// and fully re-sort the schedule — even when nothing changed. This class
// makes the per-Δ cost proportional to *change* instead:
//
//  * Size reports are applied as they arrive: each reported (daemon,
//    coflow, absolute bytes) pair updates the coflow's global size by the
//    difference from that daemon's previous report and re-discretizes
//    just that coflow (binary search over the thresholds). A queue change
//    is a field write plus a dirty mark.
//  * Coflows whose queue moved, whose ON/OFF gate toggled, or that
//    appeared/vanished since the last broadcast are marked dirty;
//    buildDelta() drains them into a kScheduleDelta payload (empty when
//    the schedule is unchanged — the broadcast is suppressed to a
//    heartbeat).
//
// The schedule order is (queue, FIFO id): it depends only on each live
// coflow's queue and id, both in the table, so it is built only where it
// is read. snapshotEntries() gathers the live coflows and sorts them. Under
// an ON budget, buildDelta() finds the max_on-th live coflow in that order
// with a partial selection (std::nth_element) in every round that changed
// something, and a coflow is ON when it does not come after it. The
// snapshot costs O(table + live log live), the selection O(table); no
// order structure is kept between reads.
//
// Everything else the report path touches lives in one flat coflow table:
//
//  * Open addressing with linear probing over a power-of-two array of
//    64-byte buckets (one cache line each). The home slot is a murmur-style
//    64-bit mix of the CoflowId: std::hash<CoflowId> is near-identity on
//    sequential external ids, which would cluster under linear probing.
//  * A bucket holds the key, the global bytes and queue, the ON / sent /
//    dirty bits and the last announced queue, the registered and
//    tombstone bits with the tombstone's last-mention time, and the first
//    reporter's (daemon, absolute bytes) pair inline. Further reporters of
//    the same coflow go in a side list chained from the bucket; a
//    per-daemon list of the coflows it reported serves dropDaemon().
//  * So a report entry costs one probe sequence: tombstone filter, then
//    bytes += new − stored, then re-discretize.
//  * The table doubles when it would pass half full and never shrinks.
//    Erasure shifts the following run back (no deleted markers), so probe
//    sequences stay as short as the load alone makes them.
//  * Tombstones (explicit unregisters whose late reports must stay
//    filtered) expire through a queue ordered by last-mention time: a
//    collection pops only entries older than the cutoff and re-queues
//    those mentioned since, so it costs O(expired), not O(tombstones).
//
// legacySchedule() reproduces the original rebuild-the-world path verbatim.
// It is a test oracle only: the equivalence tests check snapshotEntries()
// against it entry for entry (same pattern as
// fabric::maxMinAllocateReference).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coflow/ids.h"
#include "net/protocol.h"
#include "util/units.h"

namespace aalo::runtime {

/// Whether a reported byte count may enter the schedule: finite and not
/// negative. The coordinator drops any other size at ingress, and a
/// checkpoint that holds one is corrupt.
inline bool isValidReportedSize(double bytes) {
  return std::isfinite(bytes) && bytes >= 0;
}

class ScheduleState {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// `thresholds`: ascending D-CLAS upper bounds (one fewer than the
  /// number of queues). `max_on_coflows`: §6.2 ON/OFF budget, 0 = all ON.
  ScheduleState(std::vector<util::Bytes> thresholds,
                std::size_t max_on_coflows);

  /// A client registered `id`: it enters the schedule at queue 0 with
  /// zero global bytes (new == likely small).
  void registerCoflow(const coflow::CoflowId& id);

  /// A client unregistered `id`: it leaves the schedule (daemons learn
  /// this through a delta removal or its absence from a snapshot) and all
  /// per-daemon observations of it are discarded.
  void unregisterCoflow(const coflow::CoflowId& id);

  /// One reported observation: daemon `daemon_id` has seen `bytes` total
  /// (absolute, monotone per daemon) for `id`. No tombstone filter (see
  /// applyReport). Creates the coflow if unknown — that is how a
  /// restarted coordinator re-learns state (§3.2).
  void applySize(std::uint64_t daemon_id, const coflow::CoflowId& id,
                 double bytes);

  /// The coordinator's report path: applySize() unless `id` is
  /// tombstoned, in which case only its last mention moves to `now`.
  /// Returns whether the size was applied.
  bool applyReport(std::uint64_t daemon_id, const coflow::CoflowId& id,
                   double bytes, TimePoint now);

  /// The daemon disconnected or was evicted: subtract everything it
  /// reported from the global sizes (exactly what the legacy rebuild did
  /// by dropping its report map). A coflow left with no reporter that
  /// nobody registered (an orphan) leaves the schedule, as it is absent
  /// from the rebuild: announced as a removal, erased unless tombstoned.
  void dropDaemon(std::uint64_t daemon_id);

  /// Tombstones `id` (completed coflows must not resurface from daemons
  /// still reporting them) with its last mention at `now`. Independent of
  /// the schedule: callers unregister the coflow as well.
  void tombstone(const coflow::CoflowId& id, TimePoint now);
  bool isTombstoned(const coflow::CoflowId& id) const;
  /// Drops every tombstone last mentioned before `cutoff`; returns how
  /// many were collected.
  std::size_t collectTombstones(TimePoint cutoff);
  std::size_t tombstoneCount() const { return tombstones_; }

  std::size_t registeredCount() const { return registered_; }
  std::size_t scheduledCount() const { return live_; }

  /// Global size of `id` (0 when unknown). Test/diagnostic accessor.
  double globalBytes(const coflow::CoflowId& id) const;
  std::unordered_map<coflow::CoflowId, double> globalSizes() const;

  /// Drains the accumulated changes since the previous buildDelta() into
  /// `entries` (coflows whose (queue, ON) differs from what the delta
  /// chain last announced, or that appeared) and `removals` (vanished
  /// coflows the chain had announced). Entries come sorted by
  /// (queue, FIFO id) so the wire bytes are deterministic. Returns false
  /// when both are empty — the schedule is unchanged and the broadcast
  /// can be suppressed to an epoch-only heartbeat.
  bool buildDelta(std::vector<net::ScheduleEntry>& entries,
                  std::vector<coflow::CoflowId>& removals);

  /// net::scheduleDigest of the schedule the delta chain has announced,
  /// which a delta carries so its receivers can check their copy. Kept in
  /// O(1) per announced change; right after buildDelta() it is the digest
  /// of snapshotEntries().
  std::uint64_t scheduleDigest() const { return digest_; }

  /// The full current schedule, sorted by (queue, FIFO id), with the ON
  /// gate applied positionally — what a snapshot (kScheduleUpdate)
  /// carries.
  void snapshotEntries(std::vector<net::ScheduleEntry>& out) const;

  /// Starts loading `id`'s home bucket. The report path issues this for a
  /// whole frame before applying it, so the frame's probes overlap.
  void prefetch(const coflow::CoflowId& id) const;

  /// Serialization visitors (checkpointing): the raw per-daemon absolute
  /// reports and the registered set are the whole ground truth — replaying
  /// them through registerCoflow()/applySize() on a freshly constructed
  /// state reproduces the schedule exactly (snapshotEntries() sorts by
  /// (queue, FIFO id), so it is bit-identical regardless of replay
  /// order).
  /// Visit order is unspecified.
  template <typename F>  // F(const coflow::CoflowId&)
  void forEachRegistered(F&& visit) const {
    for (const Bucket& b : table_) {
      if (b.flags & kRegistered) visit(keyOf(b));
    }
  }
  template <typename F>  // F(std::uint64_t daemon, const CoflowId&, double)
  void forEachReport(F&& visit) const {
    for (const Bucket& b : table_) {
      if (!(b.flags & kReported)) continue;
      const coflow::CoflowId id = keyOf(b);
      visit(b.daemon, id, b.reported);
      for (std::uint32_t r = b.more; r != 0; r = reporters_[r - 1].next) {
        visit(reporters_[r - 1].daemon, id, reporters_[r - 1].bytes);
      }
    }
  }
  template <typename F>  // F(const coflow::CoflowId&)
  void forEachTombstone(F&& visit) const {
    for (const Bucket& b : table_) {
      if (b.flags & kTombstoned) visit(keyOf(b));
    }
  }

  using TombstoneFilter = std::function<bool(const coflow::CoflowId&)>;
  /// Test oracle: rebuilds the schedule from scratch out of the stored
  /// per-daemon reports + registrations, exactly as the pre-incremental
  /// coordinator did every Δ. No production path calls it.
  void legacySchedule(const TombstoneFilter& tombstoned,
                      std::vector<net::ScheduleEntry>& out) const;

 private:
  enum Flag : std::uint16_t {
    kUsed = 1 << 0,        ///< Bucket holds a key (0 flags = empty slot).
    kLive = 1 << 1,        ///< In the schedule.
    kRegistered = 1 << 2,
    kTombstoned = 1 << 3,
    kReported = 1 << 4,    ///< The inline first reporter is valid.
    kOn = 1 << 5,
    kDirty = 1 << 6,       ///< Queued in dirty_ since the last buildDelta().
    kSent = 1 << 7,        ///< The delta chain has announced it.
    kSentOn = 1 << 8,      ///< ON bit the delta chain last announced.
  };

  struct alignas(64) Bucket {
    std::int64_t external = 0;  ///< Key (CoflowId, split to pack `queue`).
    std::int32_t internal = 0;
    std::int32_t queue = 0;
    double bytes = 0;            ///< Global size: sum over reporters.
    std::uint64_t daemon = 0;    ///< First reporter...
    double reported = 0;         ///< ...and its last absolute report.
    TimePoint mention{};         ///< Tombstone: last report naming it.
    std::int32_t sent_queue = 0; ///< Queue the delta chain last announced.
    std::uint32_t more = 0;      ///< Further reporters: reporters_ index + 1.
    std::uint16_t flags = 0;
  };
  static_assert(sizeof(Bucket) == 64);

  /// A reporter beyond a bucket's inline first one (side list node).
  struct Reporter {
    std::uint64_t daemon = 0;
    double bytes = 0;
    std::uint32_t next = 0;  ///< Next node: index + 1, 0 = end.
  };

  /// Coflows a daemon has reported. May hold stale ids (unregistered
  /// since) and duplicates; compacted whenever it doubles.
  struct DaemonSlots {
    std::vector<coflow::CoflowId> ids;
    std::size_t compact_at = 64;
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static coflow::CoflowId keyOf(const Bucket& b) {
    return {b.external, b.internal};
  }
  std::size_t homeOf(const coflow::CoflowId& id) const;
  std::size_t find(const coflow::CoflowId& id) const;
  std::size_t findOrInsert(const coflow::CoflowId& id);
  void eraseAt(std::size_t slot);
  void grow();

  void applyAt(Bucket& b, std::uint64_t daemon_id, double bytes);
  void makeLive(Bucket& b);
  /// Takes the bucket at `slot` out of the schedule (announcing a removal
  /// if the delta chain had announced it) and drops its reports; erases
  /// it unless tombstoned.
  void removeAt(std::size_t slot);
  /// The stored absolute report of `daemon_id` in `b`, created at 0.
  double& reportOf(Bucket& b, std::uint64_t daemon_id);
  /// Unlinks `daemon_id`'s report from `b`; false when it has none.
  bool takeReport(Bucket& b, std::uint64_t daemon_id, double& bytes);
  void releaseReporters(Bucket& b);
  void noteReporter(std::uint64_t daemon_id, const coflow::CoflowId& id);
  void markDirty(Bucket& b);
  /// `b`'s share of digest_: the (queue, ON) the delta chain announced.
  static std::uint64_t sentHash(const Bucket& b) {
    return net::scheduleEntryHash(keyOf(b), b.sent_queue,
                                  (b.flags & kSentOn) != 0);
  }
  void moveToQueue(Bucket& b, int queue);
  /// Appends every live coflow to `out`, ON, in table order.
  void gatherLive(std::vector<net::ScheduleEntry>& out) const;
  /// Under an ON budget, recomputes the §6.2 ON set (first max_on_
  /// coflows in schedule order) unless nothing changed since the last
  /// round; every toggled coflow is marked dirty.
  void refreshOnSet();

  std::vector<util::Bytes> thresholds_;
  std::size_t max_on_ = 0;

  std::vector<Bucket> table_;
  std::size_t used_ = 0;
  std::size_t registered_ = 0;
  std::size_t tombstones_ = 0;
  std::vector<Reporter> reporters_;
  std::uint32_t free_reporter_ = 0;  ///< Free-list head: index + 1.
  std::unordered_map<std::uint64_t, DaemonSlots> daemons_;

  std::size_t live_ = 0;  ///< Live coflows: the schedule's size.
  /// Coflows marked dirty since the last buildDelta().
  std::vector<coflow::CoflowId> dirty_;
  /// Announced coflows unregistered since the last buildDelta().
  std::vector<coflow::CoflowId> removed_;
  /// Sum of sentHash over the announced (kSent) live coflows.
  std::uint64_t digest_ = 0;
  /// Tombstone expiry queue: (last mention when queued, id), oldest first.
  std::priority_queue<std::pair<TimePoint, coflow::CoflowId>,
                      std::vector<std::pair<TimePoint, coflow::CoflowId>>,
                      std::greater<>>
      expiry_;
};

}  // namespace aalo::runtime
