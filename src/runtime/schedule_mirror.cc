#include "runtime/schedule_mirror.h"

namespace aalo::runtime {

namespace {

std::uint64_t hashOf(const net::ScheduleEntry& e) {
  return net::scheduleEntryHash(e.id, e.queue, e.on);
}

}  // namespace

ScheduleMirror::Outcome ScheduleMirror::apply(
    const net::Message& frame, std::vector<coflow::CoflowId>* removed) {
  if (frame.fence < fence_) return Outcome::kStaleFence;
  const bool delta = frame.type == net::MessageType::kScheduleDelta;
  // Neither the codec nor the digest covers fence and epoch, so a delta
  // may not move them: one with a new fence, or not shaped like a link of
  // a chain (the coordinator sends base_epoch = epoch - 1), is a gap. A
  // damaged one cannot raise the fence or the epoch above every later
  // frame; a snapshot repairs the schedule.
  if (delta && (frame.fence > fence_ || frame.epoch != frame.base_epoch + 1)) {
    return Outcome::kGap;
  }
  // A new incarnation's stream arrives on a new connection, so a higher
  // fence is adopted only from the first frame applied since
  // restartChain(). On a chain that has applied one, a higher fence is a
  // damaged frame: adopting it would drop every real frame after it as
  // stale, so it is a gap, which a snapshot at the real fence repairs.
  if (frame.fence > fence_ && epoch_ != 0) return Outcome::kGap;
  if (frame.fence > fence_) {
    // A new incarnation numbers an independent broadcast stream.
    fence_ = frame.fence;
    restartChain();
  }
  // An old epoch must never overwrite newer state.
  if (frame.epoch <= epoch_) return Outcome::kOldEpoch;
  if (delta) {
    // A delta that does not build on what was applied does not compose.
    if (frame.base_epoch != epoch_) return Outcome::kGap;
    epoch_ = frame.epoch;
    for (const auto& e : frame.schedule) {
      const auto [it, inserted] = entries_.try_emplace(e.id, e);
      if (!inserted) {
        digest_ -= hashOf(it->second);
        it->second = e;
      }
      digest_ += hashOf(e);
    }
    for (const auto& id : frame.removals) {
      const auto it = entries_.find(id);
      if (it == entries_.end()) continue;
      digest_ -= hashOf(it->second);
      entries_.erase(it);
      if (removed) removed->push_back(id);
    }
    return digest_ == frame.schedule_digest ? Outcome::kApplied
                                            : Outcome::kDigestMismatch;
  }
  std::unordered_map<coflow::CoflowId, net::ScheduleEntry> next;
  next.reserve(frame.schedule.size());
  for (const auto& e : frame.schedule) next.insert_or_assign(e.id, e);
  if (removed) {
    for (const auto& [id, entry] : entries_) {
      if (!next.contains(id)) removed->push_back(id);
    }
  }
  entries_.swap(next);
  epoch_ = frame.epoch;
  digest_ = 0;
  for (const auto& [id, entry] : entries_) digest_ += hashOf(entry);
  requested_at_ = 0;  // The snapshot answers any outstanding request.
  return Outcome::kApplied;
}

bool ScheduleMirror::snapshotRequestDue(std::uint64_t frame_epoch) {
  if (requested_at_ != 0 && frame_epoch < requested_at_) {
    // The request was dated by a damaged or reordered frame: count the
    // patience from this one instead, so a lost request is still retried.
    requested_at_ = frame_epoch;
    return false;
  }
  if (requested_at_ != 0 && frame_epoch < requested_at_ + kRequestPatience) {
    return false;
  }
  requested_at_ = frame_epoch;
  return true;
}

}  // namespace aalo::runtime
