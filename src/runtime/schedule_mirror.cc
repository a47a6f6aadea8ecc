#include "runtime/schedule_mirror.h"

namespace aalo::runtime {

ScheduleMirror::Outcome ScheduleMirror::apply(
    const net::Message& frame, std::vector<coflow::CoflowId>* removed) {
  if (frame.fence < fence_) return Outcome::kStaleFence;
  if (frame.fence > fence_) {
    // A new incarnation numbers an independent broadcast stream.
    fence_ = frame.fence;
    epoch_ = 0;
  }
  // An old epoch must never overwrite newer state.
  if (frame.epoch <= epoch_) return Outcome::kOldEpoch;
  if (frame.type == net::MessageType::kScheduleDelta) {
    // A delta that does not build on what was applied does not compose.
    if (frame.base_epoch != epoch_) return Outcome::kGap;
    for (const auto& e : frame.schedule) entries_.insert_or_assign(e.id, e);
    for (const auto& id : frame.removals) {
      if (entries_.erase(id) != 0 && removed) removed->push_back(id);
    }
  } else {
    std::unordered_map<coflow::CoflowId, net::ScheduleEntry> next;
    next.reserve(frame.schedule.size());
    for (const auto& e : frame.schedule) next.insert_or_assign(e.id, e);
    if (removed) {
      for (const auto& [id, entry] : entries_) {
        if (!next.contains(id)) removed->push_back(id);
      }
    }
    entries_.swap(next);
  }
  epoch_ = frame.epoch;
  return Outcome::kApplied;
}

}  // namespace aalo::runtime
