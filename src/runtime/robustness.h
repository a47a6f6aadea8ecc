// Monotonic fault-tolerance counters (§3.2 hardening).
//
// Every control-plane component (Coordinator, Daemon, AaloClient) owns one
// RobustnessStats instance and bumps the counters relevant to it. Counters
// only ever grow, so tests can assert on behavior ("the daemon went stale
// exactly once", "the client reconnected") instead of sleeping and hoping.
#pragma once

#include <cstdint>

#include "obs/metrics.h"

namespace aalo::runtime {

struct RobustnessStats {
  /// Relaxed-atomic counter (obs layer), bumped by its component's loop
  /// thread and attachable to an obs::Registry (see runtime/metrics.h).
  using Counter = obs::Counter;

  // Shared.
  Counter malformed_frames{0};  ///< Frames that failed to decode.

  // Coordinator.
  Counter daemons_evicted{0};       ///< Liveness timeouts (reports stopped).
  Counter one_way_evictions{0};     ///< Echoed epoch stuck: send path dead.
  Counter tombstones_collected{0};  ///< Unregister tombstones GC'd.
  Counter delta_broadcasts{0};      ///< kScheduleDelta frames sent (non-empty).
  Counter broadcasts_suppressed{0}; ///< Unchanged schedule: heartbeat only.
  Counter snapshot_broadcasts{0};   ///< Full kScheduleUpdate frames sent.
  Counter snapshot_requests{0};     ///< kSnapshotRequest frames honored.
  Counter failovers{0};                 ///< Standby promotions to primary.
  Counter follower_frames_applied{0};   ///< Broadcasts mirrored while standby.
  Counter broadcasts_coalesced{0};      ///< Broadcast skipped: peer queue full.
  Counter checkpoint_snapshots{0};      ///< Snapshot files written.
  Counter checkpoint_journal_records{0};///< Journal records appended.
  Counter checkpoint_restores{0};       ///< Successful snapshot+journal restores.
  Counter checkpoint_restore_failures{0};///< Corrupt/rejected checkpoint data.
  Counter rejected_sizes{0};  ///< Reported sizes dropped: NaN, inf or < 0.
  Counter ingress_passes{0};  ///< Coalesced passes that read daemon reports.
  Counter repeated_hellos{0}; ///< Hellos on a connection that said one already.

  // Daemon.
  Counter reconnect_attempts{0};       ///< Dial attempts after a loss.
  Counter reconnects{0};               ///< Successful (re)connections.
  Counter stale_transitions{0};        ///< Entered local-only mode (§3.2).
  Counter stale_recoveries{0};         ///< Left local-only mode.
  Counter old_epoch_ignored{0};        ///< Dup/reordered broadcasts dropped.
  Counter completed_coflows_pruned{0}; ///< Local sizes GC'd after completion.
  Counter delta_reports{0};            ///< Changed-coflows-only size reports.
  Counter reports_suppressed{0};       ///< Empty reports not sent (keepalive pacing).
  Counter resync_reports{0};           ///< Full absolute size reports.
  Counter schedule_deltas_applied{0};  ///< kScheduleDelta frames applied.
  Counter schedule_gaps{0};            ///< Delta base_epoch mismatch: snapshot asked.
  /// Applied deltas whose digest disagreed with the mirrored schedule
  /// (daemon, and a coordinator while it is a warm standby).
  Counter schedule_digest_mismatches{0};
  Counter reports_shed{0};             ///< Reports skipped: send queue full.
  Counter stale_fence_ignored{0};      ///< Broadcasts from a deposed primary.
  Counter endpoint_failovers{0};       ///< Rotated to the next coordinator.

  // Client.
  Counter rpc_retries{0};     ///< RPC attempts beyond the first.
  Counter rpc_reconnects{0};  ///< Control connections re-established.

  RobustnessStats() = default;
  RobustnessStats(const RobustnessStats&) = delete;
  RobustnessStats& operator=(const RobustnessStats&) = delete;
};

}  // namespace aalo::runtime
