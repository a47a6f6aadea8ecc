// Seeded mutational fuzz of the coordinator's checkpoint files: a written
// snapshot and journal are mutated with the shared set in fuzz_mutations.h
// and restored. Each mutation is applied raw, and re-sealed with a valid
// checksum so that it reaches the parser instead of stopping at the
// checksum. Every input replays from (file, mutation, seed).
//
// Properties, for every input:
//  * restore() returns a state or nullopt: no crash, no undefined
//    behaviour (scripts/ci.sh runs this binary under asan + ubsan);
//  * the peak of live operator-new bytes during restore() stays within a
//    bound linear in the input size, so no count in the file can make it
//    reserve memory the file does not hold;
//  * an accepted restore, after its first buildDelta(), snapshots to the
//    legacySchedule() rebuild and carries that snapshot's digest;
//  * an accepted restore re-snapshots and restores to the same schedule.
//
// CheckpointBounds pins the count checks directly: each u32 count of a
// snapshot, set to 2^29 under a valid checksum, is rejected without the
// matching reserve.
#include <gtest/gtest.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "fuzz_mutations.h"
#include "net/protocol.h"
#include "runtime/checkpoint.h"
#include "runtime/schedule_state.h"
#include "util/units.h"

// Allocation probe: live operator-new bytes and their peak. The peak is
// raised *before* malloc, so a request too large to satisfy still counts.
namespace {
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
}  // namespace

void* operator new(std::size_t n) {
  const std::size_t want = g_live.load(std::memory_order_relaxed) + n;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (want > peak &&
         !g_peak.compare_exchange_weak(peak, want, std::memory_order_relaxed)) {
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace aalo::runtime {
namespace {

const std::vector<util::Bytes> kThresholds{1.0 * util::kMB, 10.0 * util::kMB,
                                           100.0 * util::kMB};
constexpr std::size_t kMaxOn = 2;

/// Allowed peak of live bytes during one restore of `input_bytes` of
/// checkpoint files.
std::size_t allocationBound(std::size_t input_bytes) {
  return 256 * 1024 + 64 * input_bytes;
}

std::string freshDir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("aalo_ckpt_fuzz_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::string le(T v) {
  std::string out(sizeof v, '\0');
  std::memcpy(out.data(), &v, sizeof v);
  return out;
}

/// Replaces a snapshot's trailing checksum with the checksum of `content`.
std::string sealSnapshot(const std::string& content) {
  return content + le(fnv1a(content));
}

struct Files {
  std::string snapshot;
  std::string journal;
};

/// A checkpoint with every record kind: a snapshot (registered coflows,
/// a tombstone, reports from two daemons) and a journal suffix.
Files writtenCheckpoint() {
  const std::string dir = freshDir("base");
  ScheduleState state(kThresholds, kMaxOn);
  for (std::int64_t i = 0; i < 6; ++i) state.registerCoflow({i, 0});
  state.applySize(1, {0, 0}, 512.0 * util::kKB);
  state.applySize(1, {1, 0}, 4.0 * util::kMB);
  state.applySize(2, {1, 0}, 20.0 * util::kMB);
  state.applySize(2, {3, 0}, 300.0 * util::kMB);
  {
    Checkpoint ckpt(dir);
    EXPECT_TRUE(ckpt.writeSnapshot(state, {{6, 0}}, 1, 10, 7, kThresholds, kMaxOn));
    ckpt.journalRegister({7, 0}, 8);
    net::Message report;
    report.type = net::MessageType::kSizeReport;
    report.daemon_id = 2;
    report.epoch = 11;
    report.sizes = {{{7, 0}, 8.0 * util::kKB}, {{0, 0}, 3.0 * util::kMB}};
    ckpt.journalReport(report);
    ckpt.journalUnregister({2, 0});
    ckpt.journalDropDaemon(1);
    ckpt.journalEpoch(12, 1);
    EXPECT_TRUE(ckpt.flushJournal());
  }
  return {readAll(dir + "/schedule.ckpt"), readAll(dir + "/schedule.journal")};
}

/// Journal records are [u32 len][payload][u64 fnv1a(payload)]: mutate the
/// payload of the record `seed` picks and re-frame it with a valid length
/// and checksum. A journal whose framing is already broken is left as is.
std::string mutateJournalRecord(const std::string& journal, fuzz::Mutation m,
                                std::uint64_t seed) {
  std::vector<std::string> payloads;
  for (std::size_t pos = 0; pos + 4 <= journal.size();) {
    std::uint32_t len = 0;
    std::memcpy(&len, journal.data() + pos, 4);
    if (pos + 4 + len + 8 > journal.size()) return journal;
    payloads.push_back(journal.substr(pos + 4, len));
    pos += 4 + len + 8;
  }
  if (payloads.empty()) return journal;
  std::string& victim = payloads[seed % payloads.size()];
  victim = fuzz::mutate(victim, m, seed);
  std::string out;
  for (const auto& p : payloads) {
    out += le(static_cast<std::uint32_t>(p.size())) + p + le(fnv1a(p));
  }
  return out;
}

struct Restore {
  std::optional<Checkpoint::Restored> restored;
  ScheduleState state{kThresholds, kMaxOn};
  std::vector<net::ScheduleEntry> schedule;
  std::size_t peak_bytes = 0;
};

Restore restoreFrom(const std::string& dir, const Files& files) {
  writeAll(dir + "/schedule.ckpt", files.snapshot);
  writeAll(dir + "/schedule.journal", files.journal);
  Restore out;
  Checkpoint reader(dir);
  const std::size_t base = g_live.load(std::memory_order_relaxed);
  g_peak.store(base, std::memory_order_relaxed);
  out.restored = reader.restore(out.state, kThresholds, kMaxOn);
  out.peak_bytes = g_peak.load(std::memory_order_relaxed) - base;
  if (out.restored) out.state.snapshotEntries(out.schedule);
  return out;
}

/// The two schedules agree entry for entry. Global bytes are running sums
/// whose addition order follows the file's report order, which a
/// re-snapshot regroups, so they agree to rounding only.
void expectSameSchedule(const std::vector<net::ScheduleEntry>& a,
                        const std::vector<net::ScheduleEntry>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " entry " << i;
    EXPECT_EQ(a[i].queue, b[i].queue) << what << " entry " << i;
    EXPECT_EQ(a[i].on, b[i].on) << what << " entry " << i;
    EXPECT_NEAR(a[i].global_bytes, b[i].global_bytes,
                1e-9 * std::abs(a[i].global_bytes))
        << what << " entry " << i;
  }
}

/// The schedule invariants of an accepted restore, read where a restored
/// coordinator first reads it: after one buildDelta(), the snapshot is the
/// legacySchedule() rebuild with the restored tombstones filtered (queue =
/// queueForSize(global bytes), (queue, FIFO id) order, the kMaxOn ON
/// prefix), and the delta chain's digest is that snapshot's digest.
void expectScheduleInvariants(Restore& restore, const std::string& what) {
  const std::vector<coflow::CoflowId>& tombstones = restore.restored->tombstones;
  std::vector<net::ScheduleEntry> delta;
  std::vector<coflow::CoflowId> removals;
  restore.state.buildDelta(delta, removals);
  std::vector<net::ScheduleEntry> snapshot;
  restore.state.snapshotEntries(snapshot);
  std::vector<net::ScheduleEntry> legacy;
  restore.state.legacySchedule(
      [&](const coflow::CoflowId& id) {
        return std::find(tombstones.begin(), tombstones.end(), id) !=
               tombstones.end();
      },
      legacy);
  expectSameSchedule(legacy, snapshot, what + ", legacy rebuild");
  EXPECT_EQ(restore.state.scheduleDigest(), net::scheduleDigest(snapshot))
      << what;
}

/// Checks every property on one input; returns whether it was accepted.
bool checkInput(const Files& files, const std::string& what) {
  Restore first = restoreFrom(freshDir("input"), files);
  EXPECT_LE(first.peak_bytes,
            allocationBound(files.snapshot.size() + files.journal.size()))
      << what;
  if (!first.restored) return false;
  expectScheduleInvariants(first, what);

  // Accepted: write it back as a snapshot and restore that.
  const std::string again_dir = freshDir("again");
  const Checkpoint::Restored& r = *first.restored;
  {
    Checkpoint writer(again_dir);
    EXPECT_TRUE(writer.writeSnapshot(first.state, r.tombstones, r.fence,
                                     r.epoch, r.next_external, kThresholds,
                                     kMaxOn))
        << what;
  }
  const Restore second = restoreFrom(
      again_dir, {readAll(again_dir + "/schedule.ckpt"),
                  readAll(again_dir + "/schedule.journal")});
  EXPECT_TRUE(second.restored) << what;
  if (!second.restored) return true;
  EXPECT_EQ(second.restored->fence, r.fence) << what;
  EXPECT_EQ(second.restored->epoch, r.epoch) << what;
  EXPECT_EQ(second.restored->next_external, r.next_external) << what;
  EXPECT_EQ(second.restored->tombstones, r.tombstones) << what;
  expectSameSchedule(first.schedule, second.schedule, what);
  return true;
}

TEST(CheckpointFuzz, UnmutatedCheckpointRoundTrips) {
  const Files base = writtenCheckpoint();
  const Restore restored = restoreFrom(freshDir("unmutated"), base);
  ASSERT_TRUE(restored.restored);
  EXPECT_EQ(restored.restored->journal_records, 5u);
  EXPECT_EQ(restored.schedule.size(), 6u);  // 0..5 and 7, less unregistered 2.
  EXPECT_TRUE(checkInput(base, "unmutated"));
}

TEST(CheckpointFuzz, MutatedSnapshotsRestoreOrReject) {
  const Files base = writtenCheckpoint();
  const std::string content = base.snapshot.substr(0, base.snapshot.size() - 8);
  int accepted = 0;
  int rejected = 0;
  for (int m = 0; m < fuzz::kMutationCount; ++m) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const auto mutation = static_cast<fuzz::Mutation>(m);
      const std::string tag =
          "mutation " + std::to_string(m) + " seed " + std::to_string(seed);
      checkInput({fuzz::mutate(base.snapshot, mutation, seed), base.journal},
                 "raw snapshot, " + tag);
      const bool ok = checkInput(
          {sealSnapshot(fuzz::mutate(content, mutation, seed)), base.journal},
          "sealed snapshot, " + tag);
      ++(ok ? accepted : rejected);
    }
  }
  // Sealed mutations get past the checksum: some parse, some do not.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CheckpointFuzz, MutatedJournalsRestoreOrReject) {
  const Files base = writtenCheckpoint();
  int accepted = 0;
  int rejected = 0;
  for (int m = 0; m < fuzz::kMutationCount; ++m) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const auto mutation = static_cast<fuzz::Mutation>(m);
      const std::string tag =
          "mutation " + std::to_string(m) + " seed " + std::to_string(seed);
      checkInput({base.snapshot, fuzz::mutate(base.journal, mutation, seed)},
                 "raw journal, " + tag);
      const bool ok = checkInput(
          {base.snapshot, mutateJournalRecord(base.journal, mutation, seed)},
          "sealed journal record, " + tag);
      ++(ok ? accepted : rejected);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// Every u32 count in a snapshot — registered ids, tombstones, daemons, one
// daemon's sizes — set to 2^29: rejected, and never reserved, whether the
// checksum still matches or not.
TEST(CheckpointBounds, HugeSnapshotCountsAreRejectedWithoutReserving) {
  const std::string dir = freshDir("bounds");
  ScheduleState state(kThresholds, kMaxOn);
  state.registerCoflow({0, 0});
  state.applySize(1, {0, 0}, 4096.0);
  {
    Checkpoint ckpt(dir);
    ASSERT_TRUE(ckpt.writeSnapshot(state, {{1, 0}}, 1, 0, 2, kThresholds, kMaxOn));
  }
  const std::string snapshot = readAll(dir + "/schedule.ckpt");
  const std::string content = snapshot.substr(0, snapshot.size() - 8);
  // Layout: magic, version, fence, epoch, next_external, thresholds, max_on,
  // then [count][ids] registered, [count][ids] tombstones, and
  // [count]([daemon id][count][id, bytes]...) reports.
  const std::size_t registered = 8 + 4 + 8 + 8 + 8 + 4 + 8 * kThresholds.size() + 8;
  const std::size_t tombstones = registered + 4 + 12;
  const std::size_t daemons = tombstones + 4 + 12;
  const std::size_t sizes = daemons + 4 + 8;
  ASSERT_EQ(content.size(), sizes + 4 + 12 + 8);

  for (const std::size_t offset : {registered, tombstones, daemons, sizes}) {
    std::string huge = content;
    const std::string count = le(std::uint32_t{0x20000000});
    huge.replace(offset, 4, count);
    for (const bool sealed : {true, false}) {
      const Files files{sealed ? sealSnapshot(huge) : huge + snapshot.substr(content.size()),
                        ""};
      const Restore r = restoreFrom(freshDir("bounds_case"), files);
      const std::string what = "count at byte " + std::to_string(offset) +
                               (sealed ? ", sealed" : ", unsealed");
      EXPECT_FALSE(r.restored) << what;
      EXPECT_LE(r.peak_bytes, allocationBound(files.snapshot.size())) << what;
    }
  }
}

}  // namespace
}  // namespace aalo::runtime
