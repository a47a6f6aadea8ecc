// Checkpoint/restore: snapshot + journal round-trips of ScheduleState.
//
// The tentpole claim is bit-identity: a coordinator restored from
// (snapshot, journal prefix) re-derives exactly the schedule the
// pre-crash coordinator would have broadcast. The fuzz below drives a
// live ScheduleState and a Checkpoint through hundreds of random rounds
// (register / unregister / absolute size reports / daemon drops) and
// periodically restores into a fresh state, comparing snapshotEntries()
// and the legacySchedule() oracle entry-for-entry. Sizes are whole-kB
// integers so double accumulation is exact regardless of replay order.
//
// The remaining tests pin the crash-safety edges: corrupt or truncated
// snapshots are rejected wholly (classic re-teach fallback), a torn
// journal tail replays to its clean prefix, and a journal left stale by
// a crash between snapshot rename and journal truncate is discarded.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/protocol.h"
#include "runtime/checkpoint.h"
#include "runtime/coordinator.h"
#include "runtime/schedule_state.h"
#include "util/rng.h"
#include "util/units.h"

namespace aalo::runtime {
namespace {

const std::vector<util::Bytes> kThresholds{1.0 * util::kMB, 10.0 * util::kMB,
                                           100.0 * util::kMB};

std::string freshDir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("aalo_ckpt_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string journalPath(const std::string& dir) {
  return dir + "/schedule.journal";
}

std::string snapshotPath(const std::string& dir) {
  return dir + "/schedule.ckpt";
}

std::vector<std::uint8_t> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void expectSameEntries(const std::vector<net::ScheduleEntry>& live,
                       const std::vector<net::ScheduleEntry>& restored,
                       const char* what) {
  ASSERT_EQ(live.size(), restored.size()) << what;
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].id, restored[i].id) << what << " entry " << i;
    EXPECT_EQ(live[i].global_bytes, restored[i].global_bytes)
        << what << " entry " << i;
    EXPECT_EQ(live[i].queue, restored[i].queue) << what << " entry " << i;
    EXPECT_EQ(live[i].on, restored[i].on) << what << " entry " << i;
  }
}

// 300 rounds of random coordinator inputs, applied identically to a live
// ScheduleState and to a Checkpoint journal, with periodic restores that
// must reproduce the live schedule bit-for-bit — including across
// mid-trajectory snapshot rebases (which truncate the journal).
void runFuzzTrajectory(std::size_t max_on, std::uint64_t seed) {
  const std::string dir =
      freshDir("fuzz_" + std::to_string(max_on) + "_" + std::to_string(seed));
  ScheduleState live(kThresholds, max_on);
  Checkpoint ckpt(dir);

  std::vector<coflow::CoflowId> tombstones;
  std::unordered_set<coflow::CoflowId> tombstone_set;
  std::vector<coflow::CoflowId> live_ids;
  // daemon -> coflow -> absolute bytes reported so far (monotone).
  std::unordered_map<std::uint64_t,
                     std::unordered_map<coflow::CoflowId, double>>
      sent;
  std::int64_t next_external = 0;
  std::uint64_t epoch = 0;
  const std::uint64_t fence = 1;

  ASSERT_TRUE(ckpt.writeSnapshot(live, tombstones, fence, epoch, next_external,
                                 kThresholds, max_on));

  util::Rng rng(seed);
  for (int round = 0; round < 300; ++round) {
    ++epoch;
    const auto roll = rng.uniformInt(0, 99);
    if (roll < 20 || live_ids.empty()) {
      const coflow::CoflowId id{next_external, 0};
      ++next_external;
      live.registerCoflow(id);
      ckpt.journalRegister(id, next_external);
      live_ids.push_back(id);
    } else if (roll < 30) {
      const auto idx = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(live_ids.size()) - 1));
      const coflow::CoflowId id = live_ids[idx];
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(idx));
      live.unregisterCoflow(id);
      ckpt.journalUnregister(id);
      tombstones.push_back(id);
      tombstone_set.insert(id);
    } else if (roll < 92) {
      const auto daemon = static_cast<std::uint64_t>(rng.uniformInt(1, 4));
      net::Message report;
      report.type = net::MessageType::kSizeReport;
      report.daemon_id = daemon;
      report.epoch = epoch;
      const auto n = rng.uniformInt(1, 3);
      for (std::int64_t k = 0; k < n; ++k) {
        const auto idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(live_ids.size()) - 1));
        const coflow::CoflowId id = live_ids[idx];
        // Whole-kB increments: the accumulated doubles are integers well
        // below 2^53, so global sums are exact in any replay order.
        sent[daemon][id] += 1024.0 * static_cast<double>(
                                         rng.uniformInt(1, 1 << 16));
        const double bytes = sent[daemon][id];
        report.sizes.push_back({id, bytes});
        live.applySize(daemon, id, bytes);
      }
      ckpt.journalReport(report);
    } else {
      const auto daemon = static_cast<std::uint64_t>(rng.uniformInt(1, 4));
      live.dropDaemon(daemon);
      sent.erase(daemon);
      ckpt.journalDropDaemon(daemon);
    }
    ckpt.journalEpoch(epoch, fence);
    ASSERT_TRUE(ckpt.flushJournal());

    if (round % 37 == 36) {
      Checkpoint reader(dir);
      ScheduleState restored_state(kThresholds, max_on);
      const auto restored =
          reader.restore(restored_state, kThresholds, max_on);
      ASSERT_TRUE(restored.has_value()) << "round " << round;
      EXPECT_EQ(restored->fence, fence);
      EXPECT_EQ(restored->epoch, epoch);
      EXPECT_EQ(restored->next_external, next_external);
      EXPECT_EQ(
          std::unordered_set<coflow::CoflowId>(restored->tombstones.begin(),
                                               restored->tombstones.end()),
          tombstone_set);

      std::vector<net::ScheduleEntry> live_entries;
      std::vector<net::ScheduleEntry> restored_entries;
      live.snapshotEntries(live_entries);
      restored_state.snapshotEntries(restored_entries);
      expectSameEntries(live_entries, restored_entries, "snapshotEntries");

      const auto filter = [&](const coflow::CoflowId& id) {
        return tombstone_set.contains(id);
      };
      std::vector<net::ScheduleEntry> live_legacy;
      std::vector<net::ScheduleEntry> restored_legacy;
      live.legacySchedule(filter, live_legacy);
      restored_state.legacySchedule(filter, restored_legacy);
      expectSameEntries(live_legacy, restored_legacy, "legacySchedule");
      if (::testing::Test::HasFailure()) return;
    }
    if (round % 97 == 96) {
      ASSERT_TRUE(ckpt.writeSnapshot(live, tombstones, fence, epoch,
                                     next_external, kThresholds, max_on));
    }
  }
}

TEST(CheckpointFuzz, TrajectoryRoundTripsAllOn) { runFuzzTrajectory(0, 11); }

TEST(CheckpointFuzz, TrajectoryRoundTripsWithOnBudget) {
  runFuzzTrajectory(3, 12);
}

TEST(CheckpointFuzz, TrajectoryRoundTripsTightOnBudget) {
  runFuzzTrajectory(1, 13);
}

// The ON set is picked by a partial selection over the live coflows each
// round; these budgets cut it at one, two and 64 coflows, and one budget
// lies above the peak live count (a trajectory registers at most one
// coflow per round, so at most 300 are ever live).
TEST(CheckpointFuzz, TrajectoryRoundTripsAcrossOnBudgets) {
  for (const std::size_t max_on : {1, 2, 64, 301}) {
    SCOPED_TRACE("max_on " + std::to_string(max_on));
    runFuzzTrajectory(max_on, 14);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Checkpoint, EmptyDirHasNoData) {
  const std::string dir = freshDir("empty");
  Checkpoint ckpt(dir);
  EXPECT_FALSE(ckpt.hasData());
  ScheduleState state(kThresholds, 0);
  EXPECT_FALSE(ckpt.restore(state, kThresholds, 0).has_value());
}

TEST(Checkpoint, CorruptSnapshotRejected) {
  const std::string dir = freshDir("corrupt");
  ScheduleState state(kThresholds, 0);
  state.registerCoflow({0, 0});
  state.applySize(1, {0, 0}, 4096.0);
  {
    Checkpoint ckpt(dir);
    ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 5, 1, kThresholds, 0));
  }
  auto bytes = readAll(snapshotPath(dir));
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] ^= 0xff;  // Any content flip breaks the checksum.
  writeAll(snapshotPath(dir), bytes);

  Checkpoint reader(dir);
  EXPECT_TRUE(reader.hasData());
  ScheduleState restored(kThresholds, 0);
  EXPECT_FALSE(reader.restore(restored, kThresholds, 0).has_value());
  // Rejection happens before any mutation: re-teach starts from scratch.
  EXPECT_EQ(restored.registeredCount(), 0u);
  EXPECT_EQ(restored.scheduledCount(), 0u);
}

TEST(Checkpoint, TruncatedSnapshotRejected) {
  const std::string dir = freshDir("truncated_snapshot");
  ScheduleState state(kThresholds, 0);
  state.registerCoflow({0, 0});
  {
    Checkpoint ckpt(dir);
    ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 0, 1, kThresholds, 0));
  }
  const auto size = std::filesystem::file_size(snapshotPath(dir));
  std::filesystem::resize_file(snapshotPath(dir), size / 2);

  Checkpoint reader(dir);
  ScheduleState restored(kThresholds, 0);
  EXPECT_FALSE(reader.restore(restored, kThresholds, 0).has_value());
}

TEST(Checkpoint, ConfigMismatchRejected) {
  const std::string dir = freshDir("config_mismatch");
  ScheduleState state(kThresholds, 2);
  {
    Checkpoint ckpt(dir);
    ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 0, 0, kThresholds, 2));
  }
  Checkpoint reader(dir);
  ScheduleState restored(kThresholds, 0);
  // Different ON budget.
  EXPECT_FALSE(reader.restore(restored, kThresholds, 0).has_value());
  // Different thresholds.
  const std::vector<util::Bytes> other{2.0 * util::kMB, 20.0 * util::kMB,
                                       200.0 * util::kMB};
  EXPECT_FALSE(reader.restore(restored, other, 2).has_value());
  // The matching config still restores.
  EXPECT_TRUE(reader.restore(restored, kThresholds, 2).has_value());
}

TEST(Checkpoint, TornJournalTailReplaysCleanPrefix) {
  const std::string dir = freshDir("torn_tail");
  ScheduleState state(kThresholds, 0);
  state.registerCoflow({0, 0});
  Checkpoint ckpt(dir);
  ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 0, 1, kThresholds, 0));
  ckpt.journalRegister({1, 0}, 2);
  ckpt.journalRegister({2, 0}, 3);
  ASSERT_TRUE(ckpt.flushJournal());
  const auto clean_size = std::filesystem::file_size(journalPath(dir));
  ckpt.journalRegister({3, 0}, 4);
  ASSERT_TRUE(ckpt.flushJournal());
  // Cut into the middle of the final record, as a crash mid-append would.
  std::filesystem::resize_file(journalPath(dir), clean_size + 5);

  Checkpoint reader(dir);
  ScheduleState restored(kThresholds, 0);
  const auto r = reader.restore(restored, kThresholds, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(restored.registeredCount(), 3u);  // {0,0}, {1,0}, {2,0}.
  EXPECT_EQ(r->journal_records, 2u);
  EXPECT_EQ(r->next_external, 3);
}

TEST(Checkpoint, StaleJournalDiscardedAfterSnapshotReplace) {
  const std::string dir = freshDir("stale_journal");
  const coflow::CoflowId id{0, 0};
  ScheduleState state(kThresholds, 0);
  state.registerCoflow(id);
  state.applySize(1, id, 1024.0);
  Checkpoint ckpt(dir);
  ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 0, 1, kThresholds, 0));

  // Journal a report against that base, then advance and re-snapshot.
  net::Message report;
  report.type = net::MessageType::kSizeReport;
  report.daemon_id = 1;
  report.sizes.push_back({id, 2048.0});
  ckpt.journalReport(report);
  ASSERT_TRUE(ckpt.flushJournal());
  const auto stale_journal = readAll(journalPath(dir));
  state.applySize(1, id, 2048.0);
  state.applySize(1, id, 4096.0);
  ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 0, 1, kThresholds, 0));
  // Simulate a crash between the snapshot rename and the journal
  // truncate: the old journal (bound to the previous snapshot) survives.
  writeAll(journalPath(dir), stale_journal);

  Checkpoint reader(dir);
  ScheduleState restored(kThresholds, 0);
  const auto r = reader.restore(restored, kThresholds, 0);
  ASSERT_TRUE(r.has_value());
  // The stale journal must be ignored wholly: replaying its 2048-byte
  // absolute report on top of the newer snapshot would *decrease* the
  // stored size.
  EXPECT_EQ(restored.globalBytes(id), 4096.0);
  EXPECT_EQ(r->journal_records, 0u);
}

// Collecting a tombstone is not journaled, but the report that follows it
// is: the coordinator journals only the sizes applyReport() applied. So a
// journaled size for a tombstoned id means its tombstone had been
// collected, and replay must apply the size and drop the tombstone, as the
// live state did. `a` is tombstoned in the journal, `b` in the snapshot;
// `c` keeps its tombstone and must still come back as one.
TEST(Checkpoint, ReportAfterCollectedTombstoneSurvivesRestore) {
  using std::chrono::milliseconds;
  const std::string dir = freshDir("collected_tombstone");
  const ScheduleState::TimePoint t0{};
  const coflow::CoflowId a{1, 0}, b{2, 0}, c{3, 0};
  ScheduleState live(kThresholds, 0);
  Checkpoint ckpt(dir);
  for (const auto& id : {b, c}) {
    live.registerCoflow(id);
    live.unregisterCoflow(id);
    live.tombstone(id, t0);
  }
  ASSERT_TRUE(ckpt.writeSnapshot(live, {b, c}, 1, 0, 3, kThresholds, 0));
  live.registerCoflow(a);
  ckpt.journalRegister(a, 4);
  live.unregisterCoflow(a);
  live.tombstone(a, t0);
  ckpt.journalUnregister(a);
  live.tombstone(c, t0 + milliseconds(5));  // Mentioned since: kept.
  EXPECT_EQ(live.collectTombstones(t0 + milliseconds(1)), 2u);  // a, b
  net::Message report;
  report.type = net::MessageType::kSizeReport;
  report.daemon_id = 7;
  report.epoch = 1;
  for (const auto& id : {a, b}) {
    ASSERT_TRUE(live.applyReport(7, id, 2 * util::kMB, t0 + milliseconds(2)));
    report.sizes.push_back({id, 2 * util::kMB});
  }
  ckpt.journalReport(report);
  ASSERT_TRUE(ckpt.flushJournal());
  ASSERT_EQ(live.scheduledCount(), 2u);
  ASSERT_EQ(live.tombstoneCount(), 1u);

  Checkpoint reader(dir);
  ScheduleState restored(kThresholds, 0);
  const auto r = reader.restore(restored, kThresholds, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tombstones, std::vector<coflow::CoflowId>{c});
  EXPECT_EQ(restored.scheduledCount(), 2u);
  EXPECT_EQ(restored.globalBytes(a), 2 * util::kMB);
  EXPECT_EQ(restored.globalBytes(b), 2 * util::kMB);
  std::vector<net::ScheduleEntry> live_entries, restored_entries;
  live.snapshotEntries(live_entries);
  restored.snapshotEntries(restored_entries);
  expectSameEntries(live_entries, restored_entries, "snapshotEntries");
}

TEST(Checkpoint, OrphanedJournalRejected) {
  const std::string dir = freshDir("orphaned");
  ScheduleState state(kThresholds, 0);
  state.registerCoflow({0, 0});
  Checkpoint ckpt(dir);
  ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 0, 1, kThresholds, 0));
  ckpt.journalRegister({1, 0}, 2);
  ASSERT_TRUE(ckpt.flushJournal());
  std::filesystem::remove(snapshotPath(dir));

  Checkpoint reader(dir);
  EXPECT_TRUE(reader.hasData());
  ScheduleState restored(kThresholds, 0);
  EXPECT_FALSE(reader.restore(restored, kThresholds, 0).has_value());
}

TEST(Checkpoint, JournalOnlyFromFreshStartRestores) {
  // A coordinator that crashed before its first snapshot still leaves a
  // journal bound to base checksum 0; that prefix is a valid state.
  const std::string dir = freshDir("journal_only");
  {
    Checkpoint ckpt(dir);
    ckpt.journalRegister({0, 0}, 1);
    ckpt.journalEpoch(3, 1);
    ASSERT_TRUE(ckpt.flushJournal());
  }
  ASSERT_FALSE(std::filesystem::exists(snapshotPath(dir)));
  Checkpoint reader(dir);
  ScheduleState restored(kThresholds, 0);
  const auto r = reader.restore(restored, kThresholds, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(restored.registeredCount(), 1u);
  EXPECT_EQ(r->epoch, 3u);
  EXPECT_EQ(r->next_external, 1);
}

// A checkpoint is a trust boundary like the wire: a snapshot or journal
// holding a NaN, infinite or negative size is corrupt, and restore()
// refuses it whole instead of poisoning the restored schedule.
const double kBadSizes[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), -1e12};

TEST(Checkpoint, NonFiniteOrNegativeSnapshotSizeRejected) {
  for (const double bad : kBadSizes) {
    SCOPED_TRACE(bad);
    const std::string dir = freshDir("bad_snapshot_size");
    const coflow::CoflowId id{0, 0};
    ScheduleState state(kThresholds, 0);
    state.registerCoflow(id);
    state.applySize(1, {1, 0}, 4096.0);
    state.applySize(2, id, bad);
    {
      Checkpoint ckpt(dir);
      ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 5, 2, kThresholds, 0));
    }
    Checkpoint reader(dir);
    ScheduleState restored(kThresholds, 0);
    EXPECT_FALSE(reader.restore(restored, kThresholds, 0).has_value());
    EXPECT_EQ(restored.registeredCount(), 0u);
    EXPECT_EQ(restored.scheduledCount(), 0u);
  }
}

TEST(Checkpoint, NonFiniteOrNegativeJournalSizeRejected) {
  for (const double bad : kBadSizes) {
    SCOPED_TRACE(bad);
    const std::string dir = freshDir("bad_journal_size");
    const coflow::CoflowId id{0, 0};
    ScheduleState state(kThresholds, 0);
    state.registerCoflow(id);
    Checkpoint ckpt(dir);
    ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 0, 1, kThresholds, 0));
    net::Message report;
    report.type = net::MessageType::kSizeReport;
    report.daemon_id = 1;
    report.sizes.push_back({id, 2048.0});
    report.sizes.push_back({{1, 0}, bad});
    ckpt.journalReport(report);
    ASSERT_TRUE(ckpt.flushJournal());

    Checkpoint reader(dir);
    ScheduleState restored(kThresholds, 0);
    EXPECT_FALSE(reader.restore(restored, kThresholds, 0).has_value());
  }
}

TEST(Checkpoint, CoordinatorCountsNonFiniteCheckpointAndStartsBlind) {
  const std::string dir = freshDir("bad_size_coordinator");
  CoordinatorConfig cfg;
  cfg.checkpoint_dir = dir;
  {
    ScheduleState state(cfg.dclas.thresholds(), cfg.max_on_coflows);
    state.registerCoflow({0, 0});
    state.applySize(1, {0, 0}, std::numeric_limits<double>::quiet_NaN());
    Checkpoint ckpt(dir);
    ASSERT_TRUE(ckpt.writeSnapshot(state, {}, 1, 5, 1, cfg.dclas.thresholds(),
                                   cfg.max_on_coflows));
  }
  Coordinator coordinator(cfg);
  coordinator.start();
  EXPECT_EQ(coordinator.stats().checkpoint_restore_failures.load(), 1u);
  EXPECT_EQ(coordinator.stats().checkpoint_restores.load(), 0u);
  EXPECT_EQ(coordinator.registeredCoflows(), 0u);
  EXPECT_TRUE(coordinator.globalSizes().empty());
  coordinator.stop();
}

}  // namespace
}  // namespace aalo::runtime
