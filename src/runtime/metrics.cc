#include "runtime/metrics.h"

namespace aalo::runtime {

void registerRobustnessStats(obs::Registry& registry, const RobustnessStats& stats,
                             const std::string& prefix) {
  const auto attach = [&](const char* field, const char* help,
                          const obs::Counter& c) {
    registry.attachCounter(prefix + "_" + field + "_total", help, c);
  };
  // Shared.
  attach("malformed_frames", "Frames that failed to decode", stats.malformed_frames);
  // Coordinator.
  attach("daemons_evicted", "Liveness timeouts", stats.daemons_evicted);
  attach("one_way_evictions", "Dead send-path evictions", stats.one_way_evictions);
  attach("tombstones_collected", "Unregister tombstones GC'd",
         stats.tombstones_collected);
  attach("delta_broadcasts", "Non-empty kScheduleDelta frames sent",
         stats.delta_broadcasts);
  attach("broadcasts_suppressed", "Unchanged schedule heartbeats",
         stats.broadcasts_suppressed);
  attach("snapshot_broadcasts", "Full kScheduleUpdate frames sent",
         stats.snapshot_broadcasts);
  attach("snapshot_requests", "kSnapshotRequest frames honored",
         stats.snapshot_requests);
  attach("failovers", "Standby promotions to primary", stats.failovers);
  attach("follower_frames_applied", "Broadcasts mirrored while standby",
         stats.follower_frames_applied);
  attach("broadcasts_coalesced", "Broadcasts skipped for backlogged peers",
         stats.broadcasts_coalesced);
  attach("checkpoint_snapshots", "Checkpoint snapshot files written",
         stats.checkpoint_snapshots);
  attach("checkpoint_journal_records", "Checkpoint journal records appended",
         stats.checkpoint_journal_records);
  attach("checkpoint_restores", "Successful checkpoint restores",
         stats.checkpoint_restores);
  attach("checkpoint_restore_failures", "Corrupt/rejected checkpoint data",
         stats.checkpoint_restore_failures);
  attach("rejected_sizes", "Reported sizes dropped at ingress (NaN, inf, < 0)",
         stats.rejected_sizes);
  attach("ingress_passes", "Ingress passes that read coalesced daemon connections",
         stats.ingress_passes);
  attach("repeated_hellos", "Hellos on a connection that said one already",
         stats.repeated_hellos);
  // Daemon.
  attach("reconnect_attempts", "Dial attempts after a loss",
         stats.reconnect_attempts);
  attach("reconnects", "Successful (re)connections", stats.reconnects);
  attach("stale_transitions", "Entered local-only mode", stats.stale_transitions);
  attach("stale_recoveries", "Left local-only mode", stats.stale_recoveries);
  attach("old_epoch_ignored", "Dup/reordered broadcasts dropped",
         stats.old_epoch_ignored);
  attach("completed_coflows_pruned", "Local sizes GC'd after completion",
         stats.completed_coflows_pruned);
  attach("delta_reports", "Changed-coflows-only size reports", stats.delta_reports);
  attach("reports_suppressed", "Empty reports not sent", stats.reports_suppressed);
  attach("resync_reports", "Full absolute size reports", stats.resync_reports);
  attach("schedule_deltas_applied", "kScheduleDelta frames applied",
         stats.schedule_deltas_applied);
  attach("schedule_gaps", "Delta base_epoch mismatches", stats.schedule_gaps);
  attach("schedule_digest_mismatches",
         "Applied deltas whose schedule digest disagreed",
         stats.schedule_digest_mismatches);
  attach("reports_shed", "Reports skipped under send-queue pressure",
         stats.reports_shed);
  attach("stale_fence_ignored", "Broadcasts from a deposed primary ignored",
         stats.stale_fence_ignored);
  attach("endpoint_failovers", "Rotations to the next coordinator endpoint",
         stats.endpoint_failovers);
  // Client.
  attach("rpc_retries", "RPC attempts beyond the first", stats.rpc_retries);
  attach("rpc_reconnects", "Control connections re-established",
         stats.rpc_reconnects);
}

}  // namespace aalo::runtime
