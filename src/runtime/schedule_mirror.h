// The receive side of the coordinator's schedule broadcast stream (§3.2):
// the one set of rules by which a follower — a daemon or a warm standby —
// applies kScheduleUpdate / kScheduleDelta frames, and the schedule they
// leave behind. apply() drops a frame whose fence is below the highest
// seen (a deposed primary); reports a delta with a higher fence, or whose
// epoch is not base_epoch + 1, as a gap (only a snapshot may raise the
// fence); adopts a snapshot's higher fence only as the first frame of a
// chain (a new connection to a new incarnation) and reports one on a
// chain that has applied a frame as a gap; drops an epoch not above the
// applied one (duplicate or reorder); reports a delta whose base_epoch is
// not the applied epoch as a gap; and otherwise applies it: a snapshot
// replaces the schedule, a delta upserts its entries and drops its
// removals. The mirror keeps the net::scheduleDigest of what it holds, in
// O(entries applied), and reports a delta whose digest disagrees as a
// mismatch. It also bounds the snapshot requests a chain sends.
// Staleness clocks, the requests themselves and counters stay with the
// caller (DESIGN.md §9 has the table). Not thread-safe.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coflow/ids.h"
#include "net/protocol.h"

namespace aalo::runtime {

class ScheduleMirror {
 public:
  /// kDigestMismatch: the delta was applied, but the schedule it left
  /// behind does not match its digest, so this copy had diverged (or the
  /// frame was damaged in a way the codec accepts). Ask for a snapshot.
  enum class Outcome { kStaleFence, kOldEpoch, kGap, kDigestMismatch, kApplied };

  /// Applies one schedule frame. When it is applied (kApplied or
  /// kDigestMismatch) and `removed` is non-null, the ids it took out of
  /// the schedule are appended there.
  Outcome apply(const net::Message& frame,
               std::vector<coflow::CoflowId>* removed = nullptr);

  /// After a kGap or kDigestMismatch for `frame_epoch`: whether to send a
  /// kSnapshotRequest now. At most one is outstanding per chain: an
  /// applied snapshot or a new chain answers it, and one that
  /// kRequestPatience further epochs have not answered is presumed lost
  /// (the request or its snapshot was dropped) and is due again. A frame
  /// epoch below the request's moves the request's date down to it.
  bool snapshotRequestDue(std::uint64_t frame_epoch);

  /// A new connection: the next frame starts a fresh epoch chain (the
  /// coordinator may have restarted its round counter) and no snapshot
  /// request is outstanding. The schedule and the fence are kept.
  void restartChain() {
    epoch_ = 0;
    requested_at_ = 0;
  }

  /// The applied entry for `id`, or null.
  const net::ScheduleEntry* find(const coflow::CoflowId& id) const {
    const auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<coflow::CoflowId, net::ScheduleEntry>& entries()
      const {
    return entries_;
  }
  std::uint64_t epoch() const { return epoch_; }  ///< 0 = none this chain.
  std::uint64_t fence() const { return fence_; }  ///< Highest seen, 0 = none.
  std::uint64_t digest() const { return digest_; }  ///< Of entries().

  /// A coordinator answers a request on its next round; this many epochs
  /// past the request without a snapshot mean it was lost.
  static constexpr std::uint64_t kRequestPatience = 4;

 private:
  std::unordered_map<coflow::CoflowId, net::ScheduleEntry> entries_;
  std::uint64_t epoch_ = 0;
  std::uint64_t fence_ = 0;
  std::uint64_t digest_ = 0;
  /// Frame epoch of the outstanding snapshot request, 0 = none.
  std::uint64_t requested_at_ = 0;
};

}  // namespace aalo::runtime
