// Equivalence of the coordination plane's delta path to its oracles.
//
// The delta-coded data path (incremental ScheduleState, kScheduleDelta
// broadcasts, delta size reports) must leave exactly the schedule the
// rebuild-the-world oracle (ScheduleState::legacySchedule) derives: same
// global sizes, same queue assignments, same ON/OFF gating — under clean
// links and under seeded chaos (drops, reordering, duplication, eviction
// and rejoin). These tests pin that from two sides: a seeded fuzz of
// ScheduleState against legacySchedule, and a multi-daemon chaos scenario
// whose end state is checked against what the oracle says it must be. A
// golden wire transcript of one scripted socket run pins what the
// coordinator tells daemons, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "runtime/client.h"
#include "runtime/coordinator.h"
#include "runtime/daemon.h"
#include "runtime/schedule_state.h"
#include "tests/helpers.h"
#include "tests/support/chaos.h"
#include "tests/support/raw_daemon.h"
#include "util/rng.h"
#include "util/units.h"

namespace aalo::runtime {
namespace {

using namespace std::chrono_literals;

using testing::RawDaemon;
using testing::waitFor;

// ---------------------------------------------------------------------------
// ScheduleState vs the legacy rebuild oracle, and the delta chain vs the
// snapshot: a seeded op soup (register / unregister / size reports from 4
// daemons / daemon drops) where after every round
//  * snapshotEntries() must equal legacySchedule() entry for entry, and
//  * a mirror fed only by buildDelta() outputs must equal the snapshot.
// All byte values are integer multiples of 1 KB so floating-point sums are
// exact regardless of summation order.

void fuzzScheduleState(std::uint64_t seed, std::size_t max_on) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " max_on=" + std::to_string(max_on));
  const std::vector<util::Bytes> thresholds = {
      1 * util::kMB, 10 * util::kMB, 100 * util::kMB, 1 * util::kGB};
  ScheduleState state(thresholds, max_on);
  util::Rng rng(seed);

  std::vector<coflow::CoflowId> live;
  std::int64_t next_external = 1;
  // Absolute per-(daemon, coflow) sizes the fuzz has "reported" so far.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<coflow::CoflowId, double>>
      reported;

  struct MirrorEntry {
    int queue = 0;
    bool on = true;
  };
  // What a daemon that only ever received the delta chain believes.
  std::unordered_map<coflow::CoflowId, MirrorEntry> mirror;

  std::vector<net::ScheduleEntry> delta, snapshot, legacy;
  std::vector<coflow::CoflowId> removals;

  for (int round = 0; round < 300; ++round) {
    const int ops = static_cast<int>(rng.uniformInt(1, 5));
    for (int op = 0; op < ops; ++op) {
      const double pick = rng.uniform(0, 1);
      if (pick < 0.20 || live.empty()) {
        const coflow::CoflowId id{next_external++, 0};
        state.registerCoflow(id);
        live.push_back(id);
      } else if (pick < 0.30) {
        const auto idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        const coflow::CoflowId id = live[idx];
        state.unregisterCoflow(id);
        for (auto& [daemon, sizes] : reported) sizes.erase(id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (pick < 0.92) {
        const auto idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        const auto daemon = static_cast<std::uint64_t>(rng.uniformInt(0, 3));
        double& bytes = reported[daemon][live[idx]];
        bytes += static_cast<double>(rng.uniformInt(1, 20000)) * util::kKB;
        state.applySize(daemon, live[idx], bytes);
      } else {
        const auto daemon = static_cast<std::uint64_t>(rng.uniformInt(0, 3));
        state.dropDaemon(daemon);
        reported.erase(daemon);
      }
    }

    // One coordination round: drain the delta into the mirror daemon.
    state.buildDelta(delta, removals);
    for (const auto& e : delta) mirror[e.id] = {e.queue, e.on};
    for (const auto& id : removals) mirror.erase(id);

    state.snapshotEntries(snapshot);
    state.legacySchedule({}, legacy);

    ASSERT_EQ(snapshot.size(), legacy.size()) << "round " << round;
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      EXPECT_EQ(snapshot[i].id, legacy[i].id) << "round " << round;
      EXPECT_EQ(snapshot[i].queue, legacy[i].queue) << "round " << round;
      EXPECT_EQ(snapshot[i].on, legacy[i].on) << "round " << round;
      EXPECT_EQ(snapshot[i].global_bytes, legacy[i].global_bytes)
          << "round " << round;
    }

    ASSERT_EQ(mirror.size(), snapshot.size()) << "round " << round;
    for (const auto& e : snapshot) {
      const auto it = mirror.find(e.id);
      ASSERT_NE(it, mirror.end()) << "round " << round;
      EXPECT_EQ(it->second.queue, e.queue) << "round " << round;
      EXPECT_EQ(it->second.on, e.on) << "round " << round;
    }
    if (::testing::Test::HasFailure()) return;  // One bad round is enough.
  }
}

TEST(CoordinationEquivalence, ScheduleStateMatchesLegacyOracle) {
  fuzzScheduleState(1, 0);
  fuzzScheduleState(2, 0);
}

TEST(CoordinationEquivalence, ScheduleStateMatchesLegacyOracleWithOnBudget) {
  fuzzScheduleState(3, 5);
  fuzzScheduleState(4, 2);
}

// ---------------------------------------------------------------------------
// Chaos scenario: coordinator + a clean daemon + a daemon behind a seeded
// lossy ChaosProxy; size ramp, a lossy window, a liveness eviction and
// rejoin, and an unregister. The delta path must leave exactly the
// schedule the rebuild oracle derives from what survives: coflow a at
// 8 MB (queue 1, ON) on the coordinator and on both daemons, and nothing
// else. All sizes are integer bytes, so the comparisons are exact.

TEST(CoordinationEquivalence, ChaosScenarioEndsAtTheOracleSchedule) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.dclas.num_queues = 4;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  ccfg.dclas.exp_factor = 10;
  ccfg.liveness_timeout_intervals = 50;  // Lossy reports must never evict.
  ccfg.one_way_timeout_intervals = 200;
  Coordinator coordinator(ccfg);
  coordinator.start();

  DaemonConfig base;
  base.coordinator_port = coordinator.port();
  base.sync_interval = 0.005;
  base.num_queues = 4;
  base.dclas = ccfg.dclas;
  base.resync_intervals = 7;
  base.reconnect_interval = 0.02;

  DaemonConfig d1cfg = base;
  d1cfg.daemon_id = 1;
  Daemon d1(d1cfg);
  d1.start();

  // d2 talks through the chaos proxy; the link starts clean so the
  // handshake is deterministic, mangling begins later.
  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coordinator.port();
  pcfg.seed = 1234;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  DaemonConfig d2cfg = base;
  d2cfg.daemon_id = 2;
  d2cfg.coordinator_port = proxy.port();
  Daemon d2(d2cfg);
  d2.start();

  waitFor([&] { return coordinator.daemonCount() == 2; });

  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();

  // Ramp: a reaches 8 MB split across both daemons (queue 1), b reaches
  // 16 MB on d2 alone (queue 2).
  for (int step = 0; step < 8; ++step) {
    d1.reportBytes(a, 500 * util::kKB);
    d2.reportBytes(a, 500 * util::kKB);
    d2.reportBytes(b, 2 * util::kMB);
    std::this_thread::sleep_for(10ms);
  }
  waitFor([&] {
    const auto global = coordinator.globalSizes();
    const auto a_it = global.find(a);
    const auto b_it = global.find(b);
    return a_it != global.end() && a_it->second == 8 * util::kMB &&
           b_it != global.end() && b_it->second == 16 * util::kMB;
  });
  waitFor([&] {
    return d1.queueOf(a) == 1 && d2.queueOf(a) == 1 && d1.queueOf(b) == 2 &&
           d2.queueOf(b) == 2;
  });

  // Lossy window: broadcasts to d2 are dropped / reordered / duplicated.
  // d2 must detect the gaps and repair itself with snapshots.
  net::ChaosPolicy lossy_down;
  lossy_down.drop = 0.25;
  lossy_down.reorder = 0.2;
  lossy_down.duplicate = 0.2;
  net::ChaosPolicy lossy_up;
  lossy_up.duplicate = 0.1;
  proxy.setPolicies(lossy_up, lossy_down);
  waitFor([&] { return d2.stats().schedule_gaps.load() >= 1; });
  waitFor([&] { return coordinator.stats().snapshot_requests.load() >= 1; });
  proxy.setPolicies({}, {});
  // Re-applied schedules must not have moved anything.
  waitFor([&] { return d2.queueOf(a) == 1 && d2.queueOf(b) == 2; });

  // Liveness eviction: d2's reports stop (uplink blackholed) until the
  // coordinator drops it and subtracts its contributions...
  net::ChaosPolicy blackhole_up;
  blackhole_up.blackhole = true;
  proxy.setPolicies(blackhole_up, {});
  waitFor([&] { return coordinator.stats().daemons_evicted.load() == 1; });
  waitFor([&] {
    const auto global = coordinator.globalSizes();
    const auto a_it = global.find(a);
    return a_it != global.end() && a_it->second == 4 * util::kMB;
  });
  // ...then the link heals, any half-dead reconnect is severed, and the
  // rejoining daemon's forced full report re-teaches the absolute sizes.
  proxy.setPolicies({}, {});
  proxy.killLink();
  waitFor([&] { return coordinator.daemonCount() == 2; });
  waitFor([&] {
    const auto global = coordinator.globalSizes();
    const auto a_it = global.find(a);
    const auto b_it = global.find(b);
    return a_it != global.end() && a_it->second == 8 * util::kMB &&
           b_it != global.end() && b_it->second == 16 * util::kMB;
  });
  waitFor([&] { return d2.queueOf(a) == 1 && d2.queueOf(b) == 2; });

  // Unregister b: it must vanish from the coordinator (tombstoned) and
  // both daemons must prune its local accounting (queue falls back to 0).
  client.unregisterCoflow(b);
  waitFor([&] { return !coordinator.globalSizes().contains(b); });
  waitFor([&] { return d1.queueOf(b) == 0 && d2.queueOf(b) == 0; });

  // The delta machinery must actually have carried the scenario.
  EXPECT_GT(coordinator.stats().delta_broadcasts.load(), 0u);
  EXPECT_GT(coordinator.stats().broadcasts_suppressed.load(), 0u);
  EXPECT_GT(coordinator.stats().snapshot_broadcasts.load(), 0u);
  EXPECT_GT(d2.stats().schedule_deltas_applied.load(), 0u);
  EXPECT_GT(d1.stats().delta_reports.load(), 0u);
  EXPECT_GE(d1.stats().resync_reports.load(), 1u);

  // What the oracle says the run must leave.
  EXPECT_EQ(coordinator.globalSizes(),
            (std::unordered_map<coflow::CoflowId, double>{{a, 8 * util::kMB}}));
  EXPECT_EQ(d1.queueOf(a), 1);
  EXPECT_EQ(d2.queueOf(a), 1);
  EXPECT_TRUE(d1.isOn(a));
  EXPECT_TRUE(d2.isOn(a));
  EXPECT_EQ(coordinator.stats().daemons_evicted.load(), 1u);
  const auto schedule = coordinator.scheduleSnapshot();
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule[0].id, a);
  EXPECT_EQ(schedule[0].global_bytes, 8 * util::kMB);
  EXPECT_EQ(schedule[0].queue, 1);
  EXPECT_TRUE(schedule[0].on);

  d2.stop();
  d1.stop();
  proxy.stop();
  coordinator.stop();
}

// ---------------------------------------------------------------------------
// §3.2 restart guarantee under delta reports: with the periodic resync
// effectively disabled, reconnecting to a restarted (amnesiac)
// coordinator must force exactly one full report that re-teaches every
// absolute size — the queue jumps straight to its true value, not through
// the intermediate queues.

TEST(CoordinationEquivalence, RestartedCoordinatorIsRetaughtByOneForcedResync) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.dclas.num_queues = 4;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  ccfg.dclas.exp_factor = 10;
  auto coordinator = std::make_unique<Coordinator>(ccfg);
  coordinator->start();
  const std::uint16_t port = coordinator->port();

  DaemonConfig dcfg;
  dcfg.coordinator_port = port;
  dcfg.daemon_id = 9;
  dcfg.sync_interval = 0.005;
  dcfg.num_queues = 4;
  dcfg.dclas = ccfg.dclas;
  dcfg.resync_intervals = 100000;  // Periodic resync out of the picture.
  dcfg.reconnect_interval = 0.02;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(port);
  const auto big = client.registerCoflow();
  daemon.reportBytes(big, 50 * util::kMB);  // Queue 2 (1 MB / 10 MB / 100 MB).
  waitFor([&] {
    const auto global = coordinator->globalSizes();
    const auto it = global.find(big);
    return it != global.end() && it->second == 50 * util::kMB;
  });
  waitFor([&] { return daemon.queueOf(big) == 2; });
  const std::uint64_t resyncs_before = daemon.stats().resync_reports.load();

  // Coordinator dies and a blank replacement comes up on the same port:
  // no registrations, no sizes, no tombstones.
  coordinator.reset();
  ccfg.port = port;
  Coordinator reborn(ccfg);
  reborn.start();

  // The reconnect-forced resync re-teaches the exact absolute size; the
  // coflow goes straight back to queue 2 (no climb through queue 0/1 —
  // queueOf is the max of local and global knowledge throughout).
  waitFor([&] {
    const auto global = reborn.globalSizes();
    const auto it = global.find(big);
    return it != global.end() && it->second == 50 * util::kMB;
  });
  EXPECT_EQ(daemon.queueOf(big), 2);
  // Exactly one forced full report did the re-teaching.
  EXPECT_EQ(daemon.stats().resync_reports.load(), resyncs_before + 1);
  EXPECT_GE(daemon.stats().reconnects.load(), 2u);

  daemon.stop();
  reborn.stop();
}

// ---------------------------------------------------------------------------
// Golden wire transcript of the coordinator's schedule, driven over real
// loopback sockets by hand-rolled daemons: registrations, reports from
// two daemons, an unregister (plus a late report of the tombstoned
// coflow), a daemon drop, all under a §6.2 ON budget. After every step
// the test waits until the change is visible, asks for a snapshot with
// kSnapshotRequest, and folds that frame's entries — id, global bytes,
// queue, ON bit, in wire order — into one digest. Epoch and fence depend
// on timing and stay out. Any change to what a daemon is told moves it.
TEST(CoordinationEquivalence, SingleLoopWireTranscriptIsPinned) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.dclas.num_queues = 4;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  ccfg.dclas.exp_factor = 10;
  ccfg.max_on_coflows = 2;
  // Nothing but the script may change the schedule or trigger a snapshot.
  ccfg.liveness_timeout_intervals = 0;
  ccfg.one_way_timeout_intervals = 0;
  ccfg.tombstone_gc_intervals = 0;
  Coordinator coordinator(ccfg);
  coordinator.start();

  net::EventLoop loop;
  const auto pumpUntil = [&](auto predicate) {
    waitFor([&] {
      loop.runOnce(std::chrono::milliseconds(2));
      return predicate();
    });
  };
  const auto sizeIs = [&](const coflow::CoflowId& id, double bytes) {
    const auto global = coordinator.globalSizes();
    const auto it = global.find(id);
    return it != global.end() && it->second == bytes;
  };

  auto d1 = std::make_unique<RawDaemon>(loop, coordinator.port(), 1);
  auto d2 = std::make_unique<RawDaemon>(loop, coordinator.port(), 2);
  // Each daemon's first frame after Hello is its connect snapshot.
  pumpUntil([&] { return !d1->snapshots().empty() && !d2->snapshots().empty(); });

  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a 64.
  const auto fold = [&](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  std::string transcript;
  const auto snapshotStep = [&](const char* step) {
    const std::size_t seen = d1->snapshots().size();
    d1->send(net::MessageType::kSnapshotRequest);
    pumpUntil([&] { return d1->snapshots().size() > seen; });
    const auto& entries = d1->snapshots().back()->schedule;
    transcript += std::string("\n") + step + ":";
    fold(entries.size());
    for (const auto& e : entries) {
      fold(static_cast<std::uint64_t>(e.id.external));
      fold(static_cast<std::uint64_t>(e.id.internal));
      fold(std::bit_cast<std::uint64_t>(e.global_bytes));
      fold(static_cast<std::uint64_t>(e.queue));
      fold(e.on ? 1 : 0);
      transcript += " {" + e.id.toString() + " " +
                    std::to_string(e.global_bytes) + "B q" +
                    std::to_string(e.queue) + (e.on ? " on}" : " off}");
    }
  };

  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();
  const auto c = client.registerCoflow();
  const auto d = client.registerCoflow();
  pumpUntil([&] { return coordinator.registeredCoflows() == 4; });
  snapshotStep("register");

  d1->send(net::MessageType::kSizeReport, {{a, 5 * util::kMB}, {b, 50 * util::kMB}});
  pumpUntil([&] { return sizeIs(a, 5 * util::kMB) && sizeIs(b, 50 * util::kMB); });
  snapshotStep("d1 reports");

  d2->send(net::MessageType::kSizeReport,
           {{a, 7 * util::kMB}, {c, 200 * util::kMB}, {d, 512 * util::kKB}});
  pumpUntil([&] {
    return sizeIs(a, 12 * util::kMB) && sizeIs(c, 200 * util::kMB) &&
           sizeIs(d, 512 * util::kKB);
  });
  snapshotStep("d2 reports");

  client.unregisterCoflow(b);
  pumpUntil([&] { return !coordinator.globalSizes().contains(b); });
  snapshotStep("unregister b");

  // A late report of the tombstoned coflow must stay filtered.
  d1->send(net::MessageType::kSizeReport, {{a, 6 * util::kMB}, {b, 60 * util::kMB}});
  pumpUntil([&] { return sizeIs(a, 13 * util::kMB); });
  snapshotStep("late report of b");

  d2.reset();  // Hang up: the coordinator drops d2's contributions.
  pumpUntil([&] {
    return coordinator.daemonCount() == 1 && sizeIs(a, 6 * util::kMB) &&
           sizeIs(c, 0);
  });
  snapshotStep("d2 dropped");

  SCOPED_TRACE(transcript);
  EXPECT_EQ(digest, 0x8694ba65d78c0d37ull);
  EXPECT_EQ(coordinator.stats().snapshot_requests.load(), 6u);

  d1.reset();
  coordinator.stop();
}

}  // namespace
}  // namespace aalo::runtime
