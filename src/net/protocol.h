// Aalo control-plane wire protocol (§6.2).
//
// Daemons report locally observed coflow sizes to the coordinator every Δ
// interval; the coordinator replies with the globally coordinated coflow
// order (queue per coflow + FIFO position implied by CoflowId). Clients
// register/unregister coflows through the same protocol.
//
// Encoding: little-endian primitives via net::Buffer, repeated elements
// as fixed-width arrays coded in bulk, one message per frame (see
// net/connection.h for framing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coflow/ids.h"
#include "net/buffer.h"

namespace aalo::net {

enum class MessageType : std::uint8_t {
  kHello = 1,             ///< daemon -> coordinator: announce daemon_id.
  kRegisterCoflow = 2,    ///< client -> coordinator: new coflow (with parents).
  kRegisterReply = 3,     ///< coordinator -> client: assigned CoflowId.
  kUnregisterCoflow = 4,  ///< client -> coordinator: coflow completed.
  kSizeReport = 5,        ///< daemon -> coordinator: local attained bytes.
  kScheduleUpdate = 6,    ///< coordinator -> daemons: full schedule snapshot.
  /// coordinator -> daemons: only the entries that moved queues, toggled
  /// ON/OFF, or appeared since `base_epoch`, plus the coflows that
  /// vanished (unregistered). An empty delta is an epoch-only heartbeat:
  /// "the schedule you applied at base_epoch is still exact". A daemon
  /// whose applied epoch != base_epoch has missed a broadcast and must
  /// request a snapshot instead of applying. Every delta carries the
  /// digest of the schedule it leaves behind (scheduleDigest), so a
  /// receiver whose copy silently diverged finds out within one frame.
  kScheduleDelta = 7,
  /// daemon -> coordinator: detected an epoch gap or a digest mismatch
  /// (or otherwise lost schedule state); send a full kScheduleUpdate on
  /// the next round.
  kSnapshotRequest = 8,
  /// standby coordinator -> primary: subscribe to the broadcast stream as
  /// a pseudo-daemon (warm standby). The follower receives the same
  /// snapshot-then-deltas sequence a daemon would but is exempt from
  /// liveness eviction (it sends no size reports).
  kFollowerSubscribe = 9,
};

struct CoflowSize {
  coflow::CoflowId id;
  double bytes = 0;

  friend bool operator==(const CoflowSize&, const CoflowSize&) = default;
};

struct ScheduleEntry {
  coflow::CoflowId id;
  double global_bytes = 0;
  std::int32_t queue = 0;
  /// Explicit ON/OFF signal (§6.2): the coordinator switches coflows off
  /// beyond its concurrency budget to avoid receiver-side contention and
  /// speed sender/receiver rate convergence.
  bool on = true;

  friend bool operator==(const ScheduleEntry&, const ScheduleEntry&) = default;
};

/// One decoded control message. Which fields are meaningful depends on
/// `type`; unused fields stay default-initialized. The in-place
/// decodeMessage resets every field, so a new field is reset there too.
struct Message {
  MessageType type = MessageType::kHello;
  std::uint64_t daemon_id = 0;    ///< kHello / kSizeReport.
  std::uint64_t request_id = 0;   ///< kRegisterCoflow / kRegisterReply.
  /// kScheduleUpdate / kScheduleDelta: this broadcast's coordination
  /// round. kSizeReport / kSnapshotRequest: the last epoch the daemon
  /// *applied* — the coordinator uses the echo to detect a one-way link
  /// (reports arrive, broadcasts don't).
  std::uint64_t epoch = 0;
  /// kScheduleDelta: the epoch this delta builds on. Applying it to any
  /// other state would silently diverge, so a daemon at a different
  /// applied epoch must fall back to a snapshot.
  std::uint64_t base_epoch = 0;
  /// kScheduleUpdate / kScheduleDelta: fencing epoch of the broadcasting
  /// coordinator incarnation. A standby that takes over bumps it, so
  /// daemons can ignore broadcasts from a deposed primary outright (no
  /// split-brain: follow the highest fence ever seen). kFollowerSubscribe:
  /// the highest fence the subscribing standby has witnessed.
  std::uint64_t fence = 0;
  coflow::CoflowId coflow;        ///< kRegisterReply / kUnregisterCoflow.
  std::vector<coflow::CoflowId> parents;   ///< kRegisterCoflow.
  std::vector<CoflowSize> sizes;           ///< kSizeReport.
  std::vector<ScheduleEntry> schedule;     ///< kScheduleUpdate / kScheduleDelta.
  std::vector<coflow::CoflowId> removals;  ///< kScheduleDelta: vanished coflows.
  /// kScheduleDelta: scheduleDigest of the schedule once this delta is
  /// applied. Coded after the removals.
  std::uint64_t schedule_digest = 0;

  friend bool operator==(const Message&, const Message&) = default;
};

/// One schedule entry's share of a schedule digest: a 64-bit mix of its
/// id, queue and ON bit. `global_bytes` is left out on purpose: deltas
/// skip bytes-only changes, so a receiver legitimately holds stale bytes.
inline std::uint64_t scheduleEntryHash(const coflow::CoflowId& id,
                                       std::int32_t queue, bool on) {
  // splitmix64's finalizer, chained over the fields.
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::uint64_t h = mix(static_cast<std::uint64_t>(id.external));
  h = mix(h + static_cast<std::uint32_t>(id.internal));
  const auto q = static_cast<std::uint64_t>(static_cast<std::uint32_t>(queue));
  return mix(h + ((q << 1) | (on ? 1u : 0u)));
}

/// The order-independent digest of a schedule: the wrapping sum of its
/// entries' scheduleEntryHash, so one entry's change moves it in O(1).
inline std::uint64_t scheduleDigest(const std::vector<ScheduleEntry>& entries) {
  std::uint64_t digest = 0;
  for (const auto& e : entries) digest += scheduleEntryHash(e.id, e.queue, e.on);
  return digest;
}

void encodeMessage(const Message& message, Buffer& out);

/// The one CoflowId layout of frames and checkpoints: external (i64), then
/// internal (i32), little-endian. getId throws std::out_of_range on underrun.
inline constexpr std::size_t kIdBytes = 12;
void putId(Buffer& out, const coflow::CoflowId& id);
coflow::CoflowId getId(Buffer& in);

/// Decodes one message from `in` (a full frame payload) into `out`; throws
/// std::out_of_range / std::runtime_error on malformed input. Strict:
/// an ON byte other than 0/1 or a queue of 2^31 or more is malformed, so
/// every accepted frame re-encodes to exactly its own bytes. Every field
/// of `out` is reset first and its vectors keep their capacity, so a
/// receive path that decodes each frame into one long-lived Message does
/// not allocate per frame, and nothing of an earlier (or malformed) frame
/// survives into the next.
void decodeMessage(Buffer& in, Message& out);

/// By-value form of the in-place decode.
inline Message decodeMessage(Buffer& in) {
  Message message;
  decodeMessage(in, message);
  return message;
}

}  // namespace aalo::net
