// ScheduleState pinned by one seeded op stream, from three sides:
//
//  * Golden transcript: a digest of every buildDelta() output and of every
//    20th snapshotEntries() — the exact bytes the coordinator would put on
//    the wire — pinned as constants. Any change to the delta chain, the
//    snapshot order, the ON gate or the size arithmetic moves the digest.
//  * Differential: after every round, snapshotEntries() against the
//    legacySchedule() rebuild oracle, entry for entry.
//  * Checkpoint: snapshot write -> restore into a fresh state -> the same
//    snapshotEntries(), entry for entry.
//
// The stream mixes registrations, absolute reports from five daemons,
// unregistrations, late mentions of unregistered coflows (filtered while
// their tombstone lives, resurrecting them after it is collected), daemon
// drops (which orphan the resurrected coflows nobody registered) and
// tombstone GC — everything the coordinator's report path does.
// Sizes are whole kB, so every sum is exact in any order and the oracle
// comparisons can demand equality.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/schedule_mirror.h"
#include "runtime/schedule_state.h"
#include "util/rng.h"
#include "util/units.h"

namespace aalo::runtime {
namespace {

const std::vector<util::Bytes> kThresholds{1.0 * util::kMB, 10.0 * util::kMB,
                                           100.0 * util::kMB};
constexpr int kRounds = 400;
constexpr int kDaemons = 5;
/// A tombstone unmentioned for more than this many rounds is collected.
constexpr int kGcRounds = 6;
constexpr int kSnapshotEvery = 20;

struct Op {
  enum Kind { kRegister, kUnregister, kReport, kDrop, kEndRound } kind;
  coflow::CoflowId id{};
  std::uint64_t daemon = 0;
  std::vector<std::pair<coflow::CoflowId, double>> sizes{};
};

/// The seeded stream. Absolute sizes are monotone per (daemon, coflow)
/// and survive a daemon drop, as a reconnecting daemon's would.
/// `population` coflows are registered before the first round; with none
/// the stream is the one the golden transcripts pin.
std::vector<Op> makeStream(std::uint64_t seed, std::size_t population = 0) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  std::vector<coflow::CoflowId> live;
  std::vector<coflow::CoflowId> retired;
  std::unordered_map<std::uint64_t,
                     std::unordered_map<coflow::CoflowId, double>>
      absolute;
  std::int64_t next_external = 1;
  const auto pickFrom = [&](const std::vector<coflow::CoflowId>& v) {
    return v[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(v.size()) - 1))];
  };
  for (std::size_t k = 0; k < population; ++k) {
    live.push_back({next_external++, 0});
    ops.push_back({.kind = Op::kRegister, .id = live.back()});
  }
  for (int round = 0; round < kRounds; ++round) {
    const auto n = rng.uniformInt(1, 6);
    for (std::int64_t k = 0; k < n; ++k) {
      const auto roll = rng.uniformInt(0, 99);
      if (roll < 15 || live.size() < 3) {
        const coflow::CoflowId id{next_external++,
                                  static_cast<std::int32_t>(rng.uniformInt(0, 2))};
        live.push_back(id);
        ops.push_back({.kind = Op::kRegister, .id = id});
      } else if (roll < 23) {
        const auto idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        const coflow::CoflowId id = live[idx];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        retired.push_back(id);
        ops.push_back({.kind = Op::kUnregister, .id = id});
      } else if (roll < 94) {
        Op op{.kind = Op::kReport,
              .daemon = static_cast<std::uint64_t>(rng.uniformInt(0, kDaemons - 1))};
        const auto sizes = rng.uniformInt(1, 4);
        for (std::int64_t s = 0; s < sizes; ++s) {
          const bool late = !retired.empty() && rng.chance(0.15);
          const coflow::CoflowId id = late ? pickFrom(retired) : pickFrom(live);
          double& bytes = absolute[op.daemon][id];
          // A third of the mentions re-report an unchanged size.
          if (!rng.chance(0.33)) {
            bytes += util::kKB * static_cast<double>(rng.uniformInt(1, 1 << 14));
          }
          op.sizes.emplace_back(id, bytes);
        }
        ops.push_back(std::move(op));
      } else {
        ops.push_back({.kind = Op::kDrop,
                       .daemon = static_cast<std::uint64_t>(
                           rng.uniformInt(0, kDaemons - 1))});
      }
    }
    ops.push_back({.kind = Op::kEndRound});
  }
  return ops;
}

/// FNV-1a over the wire-relevant fields of schedule frames.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const coflow::CoflowId& id) {
    add(static_cast<std::uint64_t>(id.external));
    add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.internal)));
  }
  void add(const std::vector<net::ScheduleEntry>& entries) {
    add(entries.size());
    for (const auto& e : entries) {
      add(e.id);
      add(std::bit_cast<std::uint64_t>(e.global_bytes));
      add(static_cast<std::uint64_t>(e.queue));
      add(e.on ? 1 : 0);
    }
  }
};

/// Where the replay keeps its tombstones: in front of applySize, as the
/// coordinator once did, or in ScheduleState itself (applyReport).
enum class Tombstones { kExternal, kInState };

/// Replays a stream the way the coordinator drives ScheduleState: the
/// tombstone filter sits in front of the size update, and a tombstone is
/// collected once no report mentioned it for more than kGcRounds.
/// Also keeps the applied reports, to count the orphans daemon drops
/// leave: coflows nobody registered whose last reporter dropped, which
/// leave the schedule.
class Replayer {
 public:
  explicit Replayer(std::size_t max_on,
                    Tombstones where = Tombstones::kExternal)
      : state(kThresholds, max_on), in_state(where == Tombstones::kInState) {}

  /// Round `r` on a steady clock ticking 10 ms per round.
  static ScheduleState::TimePoint at(int r) {
    return ScheduleState::TimePoint{} + std::chrono::milliseconds(10 * r);
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kRegister:
        state.registerCoflow(op.id);
        registered.insert(op.id);
        break;
      case Op::kUnregister:
        state.unregisterCoflow(op.id);
        registered.erase(op.id);
        for (auto& [daemon, sizes] : applied) sizes.erase(op.id);
        if (in_state) {
          state.tombstone(op.id, at(round));
        } else {
          tombstones[op.id] = round;
        }
        break;
      case Op::kReport:
        for (const auto& [id, bytes] : op.sizes) {
          if (in_state) {
            if (!state.applyReport(op.daemon, id, bytes, at(round))) continue;
          } else {
            const auto tomb = tombstones.find(id);
            if (tomb != tombstones.end()) {
              tomb->second = round;
              continue;
            }
            state.applySize(op.daemon, id, bytes);
          }
          applied[op.daemon][id] = bytes;
        }
        break;
      case Op::kDrop: {
        state.dropDaemon(op.daemon);
        const auto dropped = applied.extract(op.daemon);
        if (dropped.empty()) break;
        for (const auto& [id, bytes] : dropped.mapped()) {
          const bool reported =
              std::any_of(applied.begin(), applied.end(), [&](const auto& d) {
                return d.second.contains(id);
              });
          if (!reported && !registered.contains(id)) ++orphans;
        }
        break;
      }
      case Op::kEndRound:
        if (in_state) {
          state.collectTombstones(at(round - kGcRounds));
        }
        for (auto it = tombstones.begin(); it != tombstones.end();) {
          it = round - it->second > kGcRounds ? tombstones.erase(it)
                                              : std::next(it);
        }
        ++round;
        break;
    }
  }

  bool tombstoned(const coflow::CoflowId& id) const {
    return in_state ? state.isTombstoned(id) : tombstones.contains(id);
  }

  std::vector<coflow::CoflowId> tombstoneIds() const {
    std::vector<coflow::CoflowId> out;
    if (in_state) {
      state.forEachTombstone(
          [&](const coflow::CoflowId& id) { out.push_back(id); });
    }
    for (const auto& [id, mentioned] : tombstones) out.push_back(id);
    return out;
  }

  ScheduleState state;
  const bool in_state;
  int round = 0;
  std::unordered_set<coflow::CoflowId> registered;
  /// Orphans the daemon drops have left so far.
  std::size_t orphans = 0;
  std::unordered_map<coflow::CoflowId, int> tombstones;
  std::unordered_map<std::uint64_t,
                     std::unordered_map<coflow::CoflowId, double>>
      applied;
};

void expectSameEntries(const std::vector<net::ScheduleEntry>& want,
                       const std::vector<net::ScheduleEntry>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << what << " entry " << i;
    EXPECT_EQ(want[i].global_bytes, got[i].global_bytes) << what << " entry " << i;
    EXPECT_EQ(want[i].queue, got[i].queue) << what << " entry " << i;
    EXPECT_EQ(want[i].on, got[i].on) << what << " entry " << i;
  }
}

struct Transcript {
  std::uint64_t digest = 0;
  std::size_t delta_entries = 0;
  std::size_t removals = 0;
  std::size_t final_scheduled = 0;
};

Transcript transcriptOf(std::uint64_t seed, std::size_t max_on,
                        Tombstones where = Tombstones::kExternal) {
  Replayer replay(max_on, where);
  Digest digest;
  Transcript t;
  std::vector<net::ScheduleEntry> entries;
  std::vector<coflow::CoflowId> removals;
  for (const Op& op : makeStream(seed)) {
    replay.apply(op);
    if (op.kind != Op::kEndRound) continue;
    digest.add(replay.state.buildDelta(entries, removals) ? 1 : 0);
    digest.add(entries);
    digest.add(removals.size());
    for (const auto& id : removals) digest.add(id);
    t.delta_entries += entries.size();
    t.removals += removals.size();
    if (replay.round % kSnapshotEvery == 0) {
      replay.state.snapshotEntries(entries);
      digest.add(entries);
    }
  }
  t.digest = digest.h;
  t.final_scheduled = replay.state.scheduledCount();
  return t;
}

TEST(ScheduleStateGolden, TranscriptAllOn) {
  const Transcript t = transcriptOf(101, 0);
  EXPECT_EQ(t.delta_entries, 1754u);
  EXPECT_EQ(t.removals, 260u);
  EXPECT_EQ(t.final_scheduled, 155u);
  EXPECT_EQ(t.digest, 4718953083578183926ULL);
}

TEST(ScheduleStateGolden, TranscriptWithOnBudget) {
  const Transcript t = transcriptOf(202, 4);
  EXPECT_EQ(t.delta_entries, 1610u);
  EXPECT_EQ(t.removals, 297u);
  EXPECT_EQ(t.final_scheduled, 111u);
  EXPECT_EQ(t.digest, 7269244110528394526ULL);
}

void differential(std::uint64_t seed, std::size_t max_on,
                  Tombstones where = Tombstones::kExternal) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " max_on=" + std::to_string(max_on));
  Replayer replay(max_on, where);
  std::vector<net::ScheduleEntry> delta, snapshot, legacy;
  std::vector<coflow::CoflowId> removals;
  for (const Op& op : makeStream(seed)) {
    replay.apply(op);
    if (op.kind != Op::kEndRound) continue;
    replay.state.buildDelta(delta, removals);
    replay.state.snapshotEntries(snapshot);
    replay.state.legacySchedule(
        [&](const coflow::CoflowId& id) { return replay.tombstoned(id); },
        legacy);
    expectSameEntries(legacy, snapshot, "round " + std::to_string(replay.round));
    if (::testing::Test::HasFailure()) return;
  }
  // The stream must reach the orphan edge, or the rounds above never
  // compared it.
  EXPECT_GT(replay.orphans, 0u);
}

TEST(ScheduleStateDifferential, MatchesLegacyOracleAllOn) { differential(101, 0); }
TEST(ScheduleStateDifferential, MatchesLegacyOracleWithOnBudget) {
  differential(202, 4);
}

void checkpointRoundTrip(std::uint64_t seed, std::size_t max_on,
                         Tombstones where = Tombstones::kExternal) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " max_on=" + std::to_string(max_on));
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("aalo_state_ckpt_" + std::to_string(seed) + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Replayer replay(max_on, where);
  std::vector<net::ScheduleEntry> live, restored_entries;
  for (const Op& op : makeStream(seed)) {
    replay.apply(op);
    if (op.kind != Op::kEndRound || replay.round % 10 != 0) continue;
    const auto tombstones = replay.tombstoneIds();
    Checkpoint writer(dir.string());
    ASSERT_TRUE(writer.writeSnapshot(replay.state, tombstones, 1,
                                     static_cast<std::uint64_t>(replay.round),
                                     0, kThresholds, max_on));
    Checkpoint reader(dir.string());
    ScheduleState restored(kThresholds, max_on);
    const auto result = reader.restore(restored, kThresholds, max_on);
    ASSERT_TRUE(result.has_value()) << "round " << replay.round;
    EXPECT_EQ(std::unordered_set<coflow::CoflowId>(result->tombstones.begin(),
                                                   result->tombstones.end()),
              std::unordered_set<coflow::CoflowId>(tombstones.begin(),
                                                   tombstones.end()));
    replay.state.snapshotEntries(live);
    restored.snapshotEntries(restored_entries);
    expectSameEntries(live, restored_entries,
                      "round " + std::to_string(replay.round));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(replay.orphans, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ScheduleStateCheckpoint, RestoreReproducesSnapshotAllOn) {
  checkpointRoundTrip(101, 0);
}
TEST(ScheduleStateCheckpoint, RestoreReproducesSnapshotWithOnBudget) {
  checkpointRoundTrip(202, 4);
}

// The same streams with the tombstones kept inside ScheduleState
// (applyReport / tombstone / collectTombstones) must give the transcripts
// pinned above bit for bit.
TEST(ScheduleStateGolden, InStateTombstonesGiveTheSameTranscript) {
  for (const auto& [seed, max_on] :
       {std::pair<std::uint64_t, std::size_t>{101, 0}, {202, 4}}) {
    const Transcript want = transcriptOf(seed, max_on);
    const Transcript got = transcriptOf(seed, max_on, Tombstones::kInState);
    EXPECT_EQ(got.digest, want.digest) << "seed " << seed;
    EXPECT_EQ(got.delta_entries, want.delta_entries) << "seed " << seed;
    EXPECT_EQ(got.removals, want.removals) << "seed " << seed;
    EXPECT_EQ(got.final_scheduled, want.final_scheduled) << "seed " << seed;
  }
}

TEST(ScheduleStateDifferential, InStateTombstonesMatchLegacyOracle) {
  differential(101, 0, Tombstones::kInState);
  differential(202, 4, Tombstones::kInState);
}

TEST(ScheduleStateCheckpoint, InStateTombstonesRoundTrip) {
  checkpointRoundTrip(101, 0, Tombstones::kInState);
  checkpointRoundTrip(202, 4, Tombstones::kInState);
}

// --- ON budgets --------------------------------------------------------------
//
// Each round under an ON budget picks the first max_on coflows in schedule
// order with a partial selection over the live ones. The budgets below cut
// the order at one, two and 64 coflows, and once above the most coflows
// the stream ever has live, where every coflow is ON.

/// The most coflows the stream of `seed` has live at once.
std::size_t peakLive(std::uint64_t seed) {
  Replayer replay(0);
  std::size_t peak = 0;
  for (const Op& op : makeStream(seed)) {
    replay.apply(op);
    peak = std::max(peak, replay.state.scheduledCount());
  }
  return peak;
}

std::vector<std::size_t> onBudgets(std::uint64_t seed) {
  return {1, 2, 64, peakLive(seed) + 1};
}

TEST(ScheduleStateOnBudget, DifferentialAcrossBudgets) {
  for (const std::size_t max_on : onBudgets(101)) differential(101, max_on);
}

TEST(ScheduleStateOnBudget, CheckpointRoundTripAcrossBudgets) {
  for (const std::size_t max_on : onBudgets(202)) {
    checkpointRoundTrip(202, max_on);
  }
}

TEST(ScheduleStateTombstones, ExpireExactlyAfterTheirLastMention) {
  using std::chrono::milliseconds;
  const ScheduleState::TimePoint t0{};
  ScheduleState state(kThresholds, 0);
  const coflow::CoflowId a{1, 0}, b{2, 0}, c{3, 0};
  state.registerCoflow(c);
  state.tombstone(a, t0);
  state.tombstone(b, t0 + milliseconds(5));
  EXPECT_EQ(state.tombstoneCount(), 2u);
  // A late report of `a` is filtered and keeps its tombstone alive.
  EXPECT_FALSE(state.applyReport(7, a, 1e6, t0 + milliseconds(30)));
  EXPECT_EQ(state.scheduledCount(), 1u);
  EXPECT_TRUE(state.applyReport(7, c, 1e6, t0 + milliseconds(30)));
  // Cutoffs are exclusive: last mentioned at the cutoff = still held.
  EXPECT_EQ(state.collectTombstones(t0 + milliseconds(5)), 0u);
  EXPECT_EQ(state.collectTombstones(t0 + milliseconds(6)), 1u);  // b
  EXPECT_FALSE(state.isTombstoned(b));
  EXPECT_TRUE(state.isTombstoned(a));
  EXPECT_EQ(state.collectTombstones(t0 + milliseconds(30)), 0u);
  EXPECT_EQ(state.collectTombstones(t0 + milliseconds(31)), 1u);  // a
  EXPECT_EQ(state.tombstoneCount(), 0u);
  // Collected: a later report re-creates the coflow.
  EXPECT_TRUE(state.applyReport(7, a, 2e6, t0 + milliseconds(40)));
  EXPECT_EQ(state.globalBytes(a), 2e6);
  EXPECT_EQ(state.globalBytes(c), 1e6);
}

// --- Order hazards -----------------------------------------------------------
//
// The cases below set up the states an incrementally kept order gets
// wrong: a coflow that leaves a queue and comes back, ids that arrive out
// of FIFO order, an id collected and re-created, a bucket moved by a grow
// or an erase, and an ON cut that crosses a queue boundary. Each round is
// checked against the legacySchedule() oracle: the ON set and queues a
// daemon holds after applying only the delta chain, and (on snapshot
// rounds) snapshotEntries() entry for entry. Most changes happen between
// snapshots.

/// A ScheduleState's delta-chain mirror and the per-round check, schedule
/// digests included.
class OrderCheck {
 public:
  explicit OrderCheck(ScheduleState& state) : state_(state) {}

  /// Drains the round's delta into the mirror and checks the mirror (and
  /// on snapshot rounds snapshotEntries()) against legacySchedule().
  void endRound(bool snapshot) {
    std::vector<net::ScheduleEntry> oracle;
    state_.legacySchedule(
        [&](const coflow::CoflowId& id) { return state_.isTombstoned(id); },
        oracle);
    SCOPED_TRACE("round " + std::to_string(round_));
    ++round_;
    net::Message frame;
    frame.type = net::MessageType::kScheduleDelta;
    frame.epoch = static_cast<std::uint64_t>(round_);
    frame.base_epoch = frame.epoch - 1;
    state_.buildDelta(frame.schedule, frame.removals);
    frame.schedule_digest = state_.scheduleDigest();
    // The mirror applies the delta chain alone, and its digest must agree.
    ASSERT_EQ(mirror_.apply(frame), ScheduleMirror::Outcome::kApplied);
    // The delta chain carries bytes only with a queue or ON change, so the
    // mirror is compared on queue and ON alone.
    ASSERT_EQ(mirror_.entries().size(), oracle.size());
    for (const auto& e : oracle) {
      const net::ScheduleEntry* got = mirror_.find(e.id);
      ASSERT_NE(got, nullptr) << e.id.toString();
      EXPECT_EQ(got->queue, e.queue) << e.id.toString();
      EXPECT_EQ(got->on, e.on) << e.id.toString();
    }
    EXPECT_EQ(state_.scheduleDigest(), net::scheduleDigest(oracle));
    EXPECT_EQ(state_.scheduledCount(), oracle.size());
    if (snapshot) {
      std::vector<net::ScheduleEntry> snap;
      state_.snapshotEntries(snap);
      expectSameEntries(oracle, snap, "snapshot");
    }
  }

 private:
  ScheduleState& state_;
  int round_ = 0;
  ScheduleMirror mirror_;
};

constexpr double kMB = util::kMB;

TEST(ScheduleStateFlatOrder, PromotionAfterDemotionViaDropDaemon) {
  for (const std::size_t max_on : {0, 1, 3}) {
    SCOPED_TRACE("max_on " + std::to_string(max_on));
    ScheduleState s(kThresholds, max_on);
    OrderCheck check(s);
    for (std::int64_t e = 1; e <= 6; ++e) s.registerCoflow({e, 0});
    for (std::int64_t e = 1; e <= 6; ++e) s.applySize(1, {e, 0}, 5 * kMB);
    check.endRound(true);  // All in queue 1.
    for (int cycle = 0; cycle < 4; ++cycle) {
      // Demote 2 and 4 to queue 2, then promote them straight back within
      // the round.
      s.applySize(2, {2, 0}, 8 * kMB);
      s.applySize(2, {4, 0}, 8 * kMB);
      s.dropDaemon(2);
      check.endRound(cycle % 2 == 1);
      // Demote 3 to queue 2 and promote it to queue 0, where it arrived,
      // by dropping both of its reporters.
      s.applySize(2, {3, 0}, 8 * kMB);
      check.endRound(false);
      s.dropDaemon(2);
      s.dropDaemon(1);
      check.endRound(cycle % 2 == 0);
      for (std::int64_t e = 1; e <= 6; ++e) s.applySize(1, {e, 0}, 5 * kMB);
      check.endRound(false);
    }
    check.endRound(true);
  }
}

TEST(ScheduleStateFlatOrder, DemotePromoteStormBetweenSnapshots) {
  // Many coflows bounce between queues 1 and 2 several times between two
  // snapshots while new ones arrive, so one id changes queue several times
  // between two reads of the order.
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    ScheduleState s(kThresholds, 0);
    OrderCheck check(s);
    std::int64_t next = 1;
    for (; next <= 200; ++next) {
      s.registerCoflow({next, 0});
      s.applySize(1, {next, 0}, 5 * kMB);
    }
    check.endRound(true);
    for (int round = 1; round <= 40; ++round) {
      for (int k = 0; k < 60; ++k) {
        const coflow::CoflowId id{rng.uniformInt(1, next - 1), 0};
        s.applySize(2, id, 8 * kMB);
      }
      s.dropDaemon(2);
      for (int k = 0; k < 15; ++k, ++next) {
        s.registerCoflow({next, 0});
        s.applySize(1, {next, 0}, 5 * kMB);
      }
      check.endRound(round % 8 == 0);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ScheduleStateFlatOrder, CollectedIdIsRecreated) {
  using std::chrono::milliseconds;
  const ScheduleState::TimePoint t0{};
  for (const std::size_t max_on : {0, 2}) {
    SCOPED_TRACE("max_on " + std::to_string(max_on));
    ScheduleState s(kThresholds, max_on);
    OrderCheck check(s);
    for (std::int64_t e = 1; e <= 5; ++e) s.registerCoflow({e, 0});
    s.applySize(1, {3, 0}, 5 * kMB);
    check.endRound(false);
    // 3 goes, its tombstone is collected, and a late report re-creates it:
    // into queue 0 and then queue 1 again.
    s.unregisterCoflow({3, 0});
    s.tombstone({3, 0}, t0);
    check.endRound(false);
    EXPECT_EQ(s.collectTombstones(t0 + milliseconds(1)), 1u);
    EXPECT_TRUE(s.applyReport(1, {3, 0}, 6 * kMB, t0 + milliseconds(2)));
    check.endRound(false);
    check.endRound(true);
    // Re-registered while its tombstone still holds the bucket (what a
    // promoted standby does for mirrored coflows). Then unregistered and
    // re-registered within one round: the delta must carry it as an
    // entry, not also as a removal.
    s.unregisterCoflow({2, 0});
    s.tombstone({2, 0}, t0 + milliseconds(3));
    s.registerCoflow({2, 0});
    check.endRound(false);
    s.unregisterCoflow({2, 0});
    s.registerCoflow({2, 0});
    check.endRound(true);
  }
}

TEST(ScheduleStateFlatOrder, ReportCreatedOlderIdsArriveOutOfOrder) {
  for (const std::size_t max_on : {0, 1, 4}) {
    SCOPED_TRACE("max_on " + std::to_string(max_on));
    ScheduleState s(kThresholds, max_on);
    OrderCheck check(s);
    for (std::int64_t e = 10; e <= 20; ++e) s.registerCoflow({e, 0});
    check.endRound(true);
    // Older ids (and an older internal id of a live job) that nobody
    // registered, learned from reports: they sort before the scheduled ones.
    s.applySize(7, {3, 0}, 1);
    s.applySize(7, {15, 2}, 1);
    s.applySize(7, {15, 1}, 1);
    s.applySize(7, {1, 0}, 1);
    check.endRound(false);
    s.applySize(7, {12, 0}, 50 * kMB);
    s.applySize(7, {5, 0}, 50 * kMB);
    s.applySize(7, {11, 0}, 50 * kMB);
    check.endRound(false);
    s.registerCoflow({21, 0});
    s.applySize(7, {2, 0}, 1);
    check.endRound(true);
    s.applySize(7, {4, 0}, 2 * kMB);
    check.endRound(false);
  }
}

TEST(ScheduleStateFlatOrder, CheckpointRestoreArrivesOutOfOrder) {
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("aalo_flat_order_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const std::size_t max_on : {0, 3}) {
    SCOPED_TRACE("max_on " + std::to_string(max_on));
    // A live state whose table order is far from FIFO order.
    ScheduleState live(kThresholds, max_on);
    util::Rng rng(31);
    for (std::int64_t e = 1; e <= 300; ++e) {
      live.registerCoflow({e, static_cast<std::int32_t>(e % 3)});
      live.applySize(static_cast<std::uint64_t>(e % 4), {e, static_cast<std::int32_t>(e % 3)},
                     kMB * static_cast<double>(rng.uniformInt(0, 200)));
    }
    Checkpoint writer(dir.string());
    ASSERT_TRUE(writer.writeSnapshot(live, {}, 1, 1, 0, kThresholds, max_on));
    ScheduleState s(kThresholds, max_on);
    OrderCheck check(s);
    Checkpoint reader(dir.string());
    ASSERT_TRUE(reader.restore(s, kThresholds, max_on).has_value());
    check.endRound(false);
    // Keep moving the restored coflows before the first snapshot.
    for (std::int64_t e = 1; e <= 300; e += 7) {
      s.applySize(9, {e, static_cast<std::int32_t>(e % 3)}, 30 * kMB);
    }
    check.endRound(false);
    s.dropDaemon(2);
    check.endRound(true);
    s.dropDaemon(9);
    check.endRound(false);
  }
  std::filesystem::remove_all(dir);
}

TEST(ScheduleStateFlatOrder, OnBudgetCrossesQueueBoundaries) {
  for (const std::size_t max_on : {2, 3, 5, 8}) {
    SCOPED_TRACE("max_on " + std::to_string(max_on));
    ScheduleState s(kThresholds, max_on);
    OrderCheck check(s);
    for (std::int64_t e = 1; e <= 12; ++e) s.registerCoflow({e, 0});
    for (std::int64_t e = 1; e <= 12; e += 2) s.applySize(1, {e, 0}, 5 * kMB);
    check.endRound(true);
    // Each round demotes the head of queue 0 and promotes something back,
    // so the budget's cut moves across the queue boundary.
    for (std::int64_t r = 0; r < 10; ++r) {
      const std::int64_t head = 2 + 2 * (r % 6);
      s.applySize(1, {head, 0}, 5 * kMB);
      s.applySize(2, {1 + 2 * (r % 6), 0}, 50 * kMB);
      if (r % 3 == 2) s.dropDaemon(2);
      check.endRound(r % 4 == 3);
    }
    check.endRound(true);
  }
}

TEST(ScheduleStateFlatOrder, IdZeroKeepsItsEntryAfterLeavingItsHomeSlot) {
  // {0, 0} is the first id an IdGenerator issues, its home slot is slot 0
  // at every table size, and an empty slot holds the key {0, 0} as well.
  // Each variant fills the table with another id set before daemons report
  // {0, 0} (as after a coordinator restart without a checkpoint), so in
  // many variants slot 0 is taken and {0, 0} lands off its home. Erases
  // (backward shifts) and grows then move it between snapshots.
  for (std::int64_t variant = 0; variant < 48; ++variant) {
    for (const std::size_t max_on : {0, 2}) {
      SCOPED_TRACE("variant " + std::to_string(variant) + " max_on " +
                   std::to_string(max_on));
      ScheduleState s(kThresholds, max_on);
      OrderCheck check(s);
      const std::int64_t base = 1 + 100 * variant;
      for (std::int64_t e = base; e < base + 7; ++e) s.registerCoflow({e, 0});
      check.endRound(true);
      s.applySize(1, {0, 0}, 1);
      check.endRound(false);
      for (std::int64_t e = base; e < base + 7; e += 2) {
        s.unregisterCoflow({e, 0});
      }
      check.endRound(false);
      for (std::int64_t e = base + 7; e < base + 40; ++e) {
        s.registerCoflow({e, 0});
      }
      check.endRound(true);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ScheduleStateFlatOrder, ChurnStreamMatchesOracle) {
  // The seeded op stream (daemon drops, unregistrations, re-creations
  // after tombstone GC) on a second stream seed, checked every round but
  // snapshotted only every 9th. The oracle is legacySchedule(), orphans
  // included.
  for (const std::size_t max_on : {0, 4}) {
    SCOPED_TRACE("max_on " + std::to_string(max_on));
    Replayer replay(max_on, Tombstones::kInState);
    OrderCheck check(replay.state);
    for (const Op& op : makeStream(303)) {
      replay.apply(op);
      if (op.kind != Op::kEndRound) continue;
      check.endRound(replay.round % 9 == 0);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(replay.orphans, 0u);
  }
}

// The schedule digest, three ways: ScheduleState's running digest, the
// digest of snapshotEntries(), and the digest a ScheduleMirror keeps while
// it applies only the delta chain. After every buildDelta() all three
// agree, on the golden streams and the churn stream, with and without an
// ON budget.
void expectDigestsAgree(std::uint64_t seed, std::size_t max_on,
                        Tombstones where) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " max_on=" + std::to_string(max_on));
  Replayer replay(max_on, where);
  ScheduleMirror mirror;
  std::vector<net::ScheduleEntry> snapshot;
  std::uint64_t epoch = 0;
  for (const Op& op : makeStream(seed)) {
    replay.apply(op);
    if (op.kind != Op::kEndRound) continue;
    net::Message frame;
    frame.type = net::MessageType::kScheduleDelta;
    frame.epoch = ++epoch;
    frame.base_epoch = epoch - 1;
    replay.state.buildDelta(frame.schedule, frame.removals);
    frame.schedule_digest = replay.state.scheduleDigest();
    replay.state.snapshotEntries(snapshot);
    ASSERT_EQ(replay.state.scheduleDigest(), net::scheduleDigest(snapshot))
        << "round " << replay.round;
    ASSERT_EQ(mirror.apply(frame), ScheduleMirror::Outcome::kApplied)
        << "round " << replay.round;
    ASSERT_EQ(mirror.digest(), replay.state.scheduleDigest());
    ASSERT_EQ(mirror.entries().size(), snapshot.size());
  }
}

TEST(ScheduleStateDigest, AgreesWithSnapshotAndDeltaChain) {
  for (const std::size_t max_on : {0, 4}) {
    expectDigestsAgree(101, max_on, Tombstones::kExternal);
    expectDigestsAgree(202, max_on, Tombstones::kExternal);
    expectDigestsAgree(303, max_on, Tombstones::kInState);
  }
}

TEST(ScheduleStateOnBudget, DigestsAgreeAcrossBudgets) {
  for (const std::size_t max_on : onBudgets(303)) {
    expectDigestsAgree(303, max_on, Tombstones::kInState);
  }
}

TEST(ScheduleStateOnBudget, TenThousandLiveCoflowsMatchOracle) {
  // The stream over a population of ~10k coflows, so the selection
  // partitions a large live set, with a cut past queue 0, among the
  // coflows the reports demoted. Every round is checked through the delta
  // chain and every 5th through a snapshot; the first 10 rounds keep the
  // sanitizer builds fast.
  constexpr std::size_t kPopulation = 10'050;
  constexpr std::size_t kMaxOn = kPopulation - 10;
  constexpr int kLargeRounds = 10;
  Replayer replay(kMaxOn, Tombstones::kInState);
  OrderCheck check(replay.state);
  for (const Op& op : makeStream(404, kPopulation)) {
    replay.apply(op);
    if (op.kind != Op::kEndRound) continue;
    check.endRound(replay.round % 5 == 0);
    if (::testing::Test::HasFailure() || replay.round == kLargeRounds) break;
  }
  EXPECT_GE(replay.state.scheduledCount(), 10'000u);
  std::vector<net::ScheduleEntry> snap;
  replay.state.snapshotEntries(snap);
  EXPECT_GT(snap[kMaxOn - 1].queue, 0);  // The cut is past queue 0.
}

TEST(ScheduleStateDigest, MovesWithEveryQueueAndOnChange) {
  // The digest covers (id, queue, ON) and nothing else: a bytes-only
  // change the delta chain skips leaves it alone.
  ScheduleState s(kThresholds, 1);
  std::vector<net::ScheduleEntry> entries;
  std::vector<coflow::CoflowId> removals;
  EXPECT_EQ(s.scheduleDigest(), 0u);
  s.registerCoflow({1, 0});
  s.registerCoflow({2, 0});
  s.buildDelta(entries, removals);
  const std::uint64_t two = s.scheduleDigest();
  EXPECT_EQ(two, net::scheduleDigest(entries));
  s.applySize(1, {2, 0}, 0.5 * util::kMB);  // Bytes only: same queue.
  EXPECT_FALSE(s.buildDelta(entries, removals));
  EXPECT_EQ(s.scheduleDigest(), two);
  s.applySize(1, {1, 0}, 5 * util::kMB);  // Queue 1; {2, 0} takes the ON slot.
  EXPECT_TRUE(s.buildDelta(entries, removals));
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_NE(s.scheduleDigest(), two);
  s.unregisterCoflow({1, 0});
  s.unregisterCoflow({2, 0});
  s.buildDelta(entries, removals);
  EXPECT_EQ(removals.size(), 2u);
  EXPECT_EQ(s.scheduleDigest(), 0u);
}

TEST(ScheduleMirrorDigest, MismatchIsAppliedAndRequestsAreBounded) {
  ScheduleMirror mirror;
  const net::ScheduleEntry a{.id = {1, 0}, .global_bytes = 0, .queue = 0, .on = true};
  net::Message snapshot;
  snapshot.type = net::MessageType::kScheduleUpdate;
  snapshot.epoch = 1;
  snapshot.schedule = {a};
  ASSERT_EQ(mirror.apply(snapshot), ScheduleMirror::Outcome::kApplied);
  EXPECT_EQ(mirror.digest(), net::scheduleEntryHash(a.id, a.queue, a.on));

  // A delta whose digest disagrees is still applied (epoch and entries
  // advance) but reported, and asks for one snapshot request only.
  net::ScheduleEntry moved = a;
  moved.queue = 2;
  net::Message delta;
  delta.type = net::MessageType::kScheduleDelta;
  delta.epoch = 2;
  delta.base_epoch = 1;
  delta.schedule = {moved};
  delta.schedule_digest = 12345;
  EXPECT_EQ(mirror.apply(delta), ScheduleMirror::Outcome::kDigestMismatch);
  EXPECT_EQ(mirror.epoch(), 2u);
  EXPECT_EQ(mirror.find(a.id)->queue, 2);
  EXPECT_TRUE(mirror.snapshotRequestDue(2));
  for (std::uint64_t e = 3; e < 2 + ScheduleMirror::kRequestPatience; ++e) {
    EXPECT_FALSE(mirror.snapshotRequestDue(e)) << "epoch " << e;
  }
  // Unanswered for kRequestPatience epochs: presumed lost, due again.
  EXPECT_TRUE(mirror.snapshotRequestDue(2 + ScheduleMirror::kRequestPatience));

  // A snapshot answers it: the digest is recomputed and the next
  // divergence may ask at once.
  snapshot.epoch = 10;
  ASSERT_EQ(mirror.apply(snapshot), ScheduleMirror::Outcome::kApplied);
  EXPECT_EQ(mirror.digest(), net::scheduleEntryHash(a.id, a.queue, a.on));
  EXPECT_TRUE(mirror.snapshotRequestDue(11));

  // A removal takes its entry's share out of the digest.
  delta.epoch = 11;
  delta.base_epoch = 10;
  delta.schedule.clear();
  delta.removals = {a.id};
  delta.schedule_digest = 0;
  EXPECT_EQ(mirror.apply(delta), ScheduleMirror::Outcome::kApplied);
  EXPECT_EQ(mirror.digest(), 0u);

  mirror.restartChain();  // A new connection answers a request too.
  EXPECT_TRUE(mirror.snapshotRequestDue(12));
}

// A delta damaged in its fence or epoch field, or a snapshot damaged in
// its fence, which neither the codec nor the schedule digest covers
// (ChaosPolicy::corrupt flips such bits), must not wedge its follower: it
// is a gap that leaves the fence and the applied epoch alone, the real
// stream after it keeps arriving as gaps without a second request, and
// the one snapshot that answers the request repairs the schedule and the
// chain.
void corruptedFrameIsRepairedByOneSnapshot(std::uint64_t net::Message::*field,
                                           net::MessageType damaged_type) {
  ScheduleState state(kThresholds, 0);
  ScheduleMirror mirror;
  std::uint64_t epoch = 0;
  int requests = 0;
  bool answer_next = false;
  // One coordinator round at fence 1: some change, then the delta — or,
  // once a request is due to be answered, a snapshot at the same epoch.
  const auto round = [&] {
    const auto e = static_cast<std::int64_t>(++epoch);
    state.registerCoflow({100 + e, 0});
    state.applySize(1, {1 + e % 3, 0}, static_cast<double>(e) * 2 * kMB);
    net::Message frame;
    frame.fence = 1;
    frame.epoch = epoch;
    state.buildDelta(frame.schedule, frame.removals);
    if (epoch == 1 || answer_next) {
      answer_next = false;
      frame.type = net::MessageType::kScheduleUpdate;
      frame.removals.clear();
      state.snapshotEntries(frame.schedule);
    } else {
      frame.type = net::MessageType::kScheduleDelta;
      frame.base_epoch = epoch - 1;
      frame.schedule_digest = state.scheduleDigest();
    }
    return frame;
  };
  // The follower's side, as the daemon and the standby handle it.
  const auto deliver = [&](const net::Message& frame) {
    const ScheduleMirror::Outcome outcome = mirror.apply(frame);
    if ((outcome == ScheduleMirror::Outcome::kGap ||
         outcome == ScheduleMirror::Outcome::kDigestMismatch) &&
        mirror.snapshotRequestDue(frame.epoch)) {
      ++requests;
    }
    return outcome;
  };
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(deliver(round()), ScheduleMirror::Outcome::kApplied);
  }
  answer_next = damaged_type == net::MessageType::kScheduleUpdate;
  net::Message damaged = round();
  ASSERT_EQ(damaged.type, damaged_type);
  damaged.*field ^= std::uint64_t{1} << 40;
  EXPECT_EQ(deliver(damaged), ScheduleMirror::Outcome::kGap);
  EXPECT_EQ(mirror.fence(), 1u);
  EXPECT_EQ(mirror.epoch(), 3u);
  // The real stream goes on; the request is outstanding, so its gaps ask
  // for nothing more.
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(deliver(round()), ScheduleMirror::Outcome::kGap);
  }
  EXPECT_EQ(requests, 1);
  answer_next = true;
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(deliver(round()), ScheduleMirror::Outcome::kApplied);
    EXPECT_EQ(mirror.epoch(), epoch);
  }
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(mirror.fence(), 1u);
  std::vector<net::ScheduleEntry> want;
  state.snapshotEntries(want);
  ASSERT_EQ(mirror.entries().size(), want.size());
  for (const auto& e : want) {
    const net::ScheduleEntry* got = mirror.find(e.id);
    ASSERT_NE(got, nullptr) << e.id.toString();
    EXPECT_EQ(got->queue, e.queue) << e.id.toString();
    EXPECT_EQ(got->on, e.on) << e.id.toString();
  }
  EXPECT_EQ(mirror.digest(), state.scheduleDigest());
}

TEST(ScheduleMirrorCorruption, FlippedFenceBitIsAGapRepairedByOneSnapshot) {
  corruptedFrameIsRepairedByOneSnapshot(&net::Message::fence,
                                        net::MessageType::kScheduleDelta);
}

TEST(ScheduleMirrorCorruption, FlippedEpochBitIsAGapRepairedByOneSnapshot) {
  corruptedFrameIsRepairedByOneSnapshot(&net::Message::epoch,
                                        net::MessageType::kScheduleDelta);
}

// Only the first frame of a chain (a new connection) may raise the fence:
// a snapshot whose fence was damaged mid-chain must not be adopted, or the
// follower drops every real frame after it as kStaleFence.
TEST(ScheduleMirrorCorruption, FlippedSnapshotFenceBitIsAGapRepairedByOneSnapshot) {
  corruptedFrameIsRepairedByOneSnapshot(&net::Message::fence,
                                        net::MessageType::kScheduleUpdate);
}

TEST(ScheduleMirrorCorruption, FirstFrameOfANewChainMayRaiseTheFence) {
  // A promoted standby's stream reaches a follower on a new connection.
  ScheduleMirror mirror;
  net::Message snapshot;
  snapshot.type = net::MessageType::kScheduleUpdate;
  snapshot.fence = 1;
  snapshot.epoch = 7;
  ASSERT_EQ(mirror.apply(snapshot), ScheduleMirror::Outcome::kApplied);
  snapshot.fence = 2;
  snapshot.epoch = 8;
  EXPECT_EQ(mirror.apply(snapshot), ScheduleMirror::Outcome::kGap);
  EXPECT_EQ(mirror.fence(), 1u);
  mirror.restartChain();
  snapshot.epoch = 1;
  EXPECT_EQ(mirror.apply(snapshot), ScheduleMirror::Outcome::kApplied);
  EXPECT_EQ(mirror.fence(), 2u);
  EXPECT_EQ(mirror.epoch(), 1u);
}

TEST(ScheduleMirrorCorruption, RequestDatedByADamagedEpochIsStillRetried) {
  // The request a damaged epoch caused is re-dated by the next real frame,
  // so if it was lost, the real stream asks again after the usual patience.
  ScheduleMirror mirror;
  EXPECT_TRUE(mirror.snapshotRequestDue(6 + (std::uint64_t{1} << 40)));
  for (std::uint64_t e = 7; e < 7 + ScheduleMirror::kRequestPatience; ++e) {
    EXPECT_FALSE(mirror.snapshotRequestDue(e)) << "epoch " << e;
  }
  EXPECT_TRUE(mirror.snapshotRequestDue(7 + ScheduleMirror::kRequestPatience));
}

}  // namespace
}  // namespace aalo::runtime
