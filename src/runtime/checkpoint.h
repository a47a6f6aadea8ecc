// Durable coordinator state: snapshot + delta journal (§3.2 hardening).
//
// A restarted Aalo coordinator classically re-learns everything from the
// daemons' forced full reports ("re-teach"). That works but costs one or
// more sync rounds of blindness and a resync storm. This checkpoint makes
// restart cheap instead: the coordinator periodically writes an
// atomic-rename snapshot of its ScheduleState ground truth (the per-daemon
// absolute size reports + registrations — everything else is derived) and
// appends every state-changing control message between snapshots to a
// checksummed journal. Restore = load snapshot, replay journal prefix;
// because all size reports are *absolute* and the schedule is a sorted
// set, the rebuilt schedule is bit-identical to the pre-crash one and the
// resumed coordinator re-broadcasts it without a single snapshot request.
//
// Journal records embed the regular wire encoding (net::encodeMessage) for
// reports / registrations / unregistrations — one serialization format for
// the wire and the disk, so protocol evolution covers both.
//
// Crash-safety invariants:
//  * Snapshot: written to a temp file, fsync'd semantics via full write +
//    std::rename — readers only ever see the old or the new complete file.
//  * Journal: each record is [u32 len][payload][u64 fnv1a(payload)]; a torn
//    tail (partial final record, bad checksum) ends replay cleanly — the
//    prefix is still a consistent state.
//  * The journal's first record binds it to its base snapshot's checksum;
//    a journal left over from before a snapshot-truncate crash is detected
//    and discarded wholly rather than half-replayed.
//  * Any other inconsistency (bad magic/version/checksum, threshold or
//    max_on config mismatch, a NaN, infinite or negative size) rejects the
//    whole checkpoint: the coordinator falls back to the classic re-teach
//    path, never to a guessed state.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "coflow/ids.h"
#include "net/buffer.h"
#include "net/protocol.h"
#include "runtime/schedule_state.h"
#include "util/units.h"

namespace aalo::runtime {

class Checkpoint {
 public:
  /// State recovered by restore() that lives outside ScheduleState.
  struct Restored {
    std::uint64_t fence = 1;
    std::uint64_t epoch = 0;
    std::int64_t next_external = 0;
    /// Unregistered coflows still inside their tombstone window at the
    /// time of the last record, in FIFO id order; the restored
    /// coordinator re-arms them.
    std::vector<coflow::CoflowId> tombstones;
    std::size_t journal_records = 0;  ///< Records replayed after the snapshot.
  };

  /// `dir` is created if missing. Files: <dir>/schedule.ckpt (snapshot),
  /// <dir>/schedule.journal (append-only deltas since that snapshot).
  explicit Checkpoint(std::string dir);
  ~Checkpoint();
  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// True when a snapshot or journal exists on disk — i.e. restore() has
  /// something to work with and a nullopt return means *corruption*, not
  /// a fresh start.
  bool hasData() const;

  /// Loads snapshot + journal into `state` (must be freshly constructed
  /// with the same thresholds/max_on, which are validated against the
  /// snapshot). Returns the out-of-band state on success; nullopt when
  /// the data is missing, corrupt, or from an incompatible config.
  std::optional<Restored> restore(ScheduleState& state,
                                  const std::vector<util::Bytes>& thresholds,
                                  std::size_t max_on);

  /// Atomically replaces the snapshot with the current ground truth and
  /// starts a fresh journal bound to it. Returns false on I/O failure
  /// (the previous snapshot, if any, is untouched).
  bool writeSnapshot(const ScheduleState& state,
                     const std::vector<coflow::CoflowId>& tombstones,
                     std::uint64_t fence, std::uint64_t epoch,
                     std::int64_t next_external,
                     const std::vector<util::Bytes>& thresholds,
                     std::size_t max_on);

  // --- journal appends (buffered in memory until flushJournal) -----------
  /// `report` must carry only the tombstone-filtered sizes that were
  /// actually applied to the ScheduleState.
  void journalReport(const net::Message& report);
  void journalRegister(const coflow::CoflowId& id, std::int64_t next_external);
  void journalUnregister(const coflow::CoflowId& id);
  void journalDropDaemon(std::uint64_t daemon_id);
  void journalEpoch(std::uint64_t epoch, std::uint64_t fence);

  /// Appends all buffered records to the journal file. Returns false on
  /// I/O failure. Called once per coordination round, not per record.
  bool flushJournal();

 private:
  bool openJournal(std::uint64_t base_snapshot_checksum, bool truncate);

  std::string dir_;
  std::string snapshot_path_;
  std::string tmp_path_;
  std::string journal_path_;
  /// Buffered journal bytes awaiting flushJournal().
  net::Buffer pending_;
  /// Checksum of the snapshot the current journal builds on (0 = none).
  std::uint64_t base_checksum_ = 0;
  std::ofstream journal_out_;
};

}  // namespace aalo::runtime
