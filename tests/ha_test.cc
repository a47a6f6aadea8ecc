// Coordinator high availability: warm-standby failover, checkpoint
// restore, torn broadcasts, reconnect-backoff discipline, and overload
// backpressure. These are end-to-end drills over real sockets; they
// carry the "ha" ctest label and run under the sanitizer presets.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
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
#include "util/units.h"

namespace aalo::runtime {
namespace {

using namespace std::chrono_literals;

using testing::waitFor;

CoordinatorConfig fastCoordinator() {
  CoordinatorConfig cfg;
  cfg.sync_interval = 0.005;
  return cfg;
}

DaemonConfig fastDaemon(std::uint16_t port, std::uint64_t id) {
  DaemonConfig cfg;
  cfg.coordinator_port = port;
  cfg.daemon_id = id;
  cfg.sync_interval = 0.005;
  cfg.reconnect_interval = 0.01;
  return cfg;
}

std::string freshDir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("aalo_ha_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

::testing::AssertionResult sameSchedule(const std::vector<net::ScheduleEntry>& a,
                                      const std::vector<net::ScheduleEntry>& b) {
  if (a == b) return ::testing::AssertionSuccess();
  auto dump = [](const std::vector<net::ScheduleEntry>& s) {
    std::string out;
    for (const auto& e : s) {
      out += " {" + e.id.toString() + " " +
             std::to_string(e.global_bytes) + "B q" + std::to_string(e.queue) +
             (e.on ? " on" : " off") + "}";
    }
    return out.empty() ? std::string(" <empty>") : out;
  };
  return ::testing::AssertionFailure()
         << "schedules differ:\n  lhs:" << dump(a) << "\n  rhs:" << dump(b);
}

// Tentpole drill: kill the primary mid-stream; every daemon must converge
// on the promoted standby (higher fence) and the final schedule must be
// bit-identical to a run where no failure ever happened.
TEST(HighAvailability, FailoverConvergesBitIdenticalToNoFailureRun) {
  auto primary = std::make_unique<Coordinator>(fastCoordinator());
  primary->start();

  CoordinatorConfig scfg = fastCoordinator();
  scfg.standby_of = primary->port();
  scfg.takeover_intervals = 5;
  Coordinator standby(scfg);
  standby.start();
  EXPECT_FALSE(standby.isPrimary());

  DaemonConfig d1cfg = fastDaemon(primary->port(), 1);
  d1cfg.coordinator_ports = {primary->port(), standby.port()};
  DaemonConfig d2cfg = d1cfg;
  d2cfg.daemon_id = 2;
  Daemon d1(d1cfg);
  Daemon d2(d2cfg);
  d1.start();
  d2.start();

  AaloClient client(primary->port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();
  const auto c = client.registerCoflow();
  d1.reportBytes(a, 64.0 * util::kMB);
  d2.reportBytes(a, 64.0 * util::kMB);
  d1.reportBytes(b, 2.0 * util::kMB);
  // c never sends: stays a fresh queue-0 coflow.
  waitFor([&] { return d1.queueOf(a) > 0 && d2.queueOf(a) > 0; });
  // The standby's mirror holds all three coflows before the failure: the
  // never-reporting c survives promotion only through it. A count of
  // applied frames does not prove that (loaded tsan runs promoted with 0-2
  // mirrored coflows after five frames), so wait on the mirror itself.
  waitFor([&] {
    const auto mirrored = standby.mirroredCoflows();
    return mirrored.contains(a) && mirrored.contains(b) && mirrored.contains(c);
  });
  ASSERT_FALSE(standby.isPrimary()) << "standby promoted before the failure";

  primary->stop();
  primary.reset();

  // The standby notices the silence, promotes, and fences above the
  // deposed primary; daemons rotate endpoints and follow the new fence.
  waitFor([&] { return standby.isPrimary(); }, 10000ms);
  EXPECT_EQ(standby.fence(), 2u);
  EXPECT_EQ(
      standby.stats().failovers.load(std::memory_order_relaxed), 1u);
  waitFor([&] { return standby.daemonCount() == 2; }, 10000ms);
  waitFor([&] { return d1.fenceSeen() == 2 && d2.fenceSeen() == 2; },
          10000ms);
  waitFor([&] { return d1.connected() && d2.connected(); }, 10000ms);
  // Absolute size reports re-teach the promoted standby within a round.
  waitFor([&] { return d1.queueOf(a) > 0 && d2.queueOf(a) > 0; }, 10000ms);

  // Reference universe: same registrations and reports, no failure.
  Coordinator reference(fastCoordinator());
  reference.start();
  Daemon r1(fastDaemon(reference.port(), 1));
  Daemon r2(fastDaemon(reference.port(), 2));
  r1.start();
  r2.start();
  AaloClient ref_client(reference.port());
  const auto ra = ref_client.registerCoflow();
  const auto rb = ref_client.registerCoflow();
  ref_client.registerCoflow();
  ASSERT_EQ(ra, a);  // Same mint order => same CoflowIds.
  ASSERT_EQ(rb, b);
  r1.reportBytes(ra, 64.0 * util::kMB);
  r2.reportBytes(ra, 64.0 * util::kMB);
  r1.reportBytes(rb, 2.0 * util::kMB);
  waitFor([&] { return r1.queueOf(ra) > 0 && r2.queueOf(ra) > 0; });

  waitFor(
      [&] {
        return sameSchedule(standby.scheduleSnapshot(),
                            reference.scheduleSnapshot());
      },
      10000ms);
  const auto failed_over = standby.scheduleSnapshot();
  ASSERT_EQ(failed_over.size(), 3u);
  EXPECT_TRUE(sameSchedule(failed_over, reference.scheduleSnapshot()));
  // The unreported coflow survived the failover as a fresh queue-0 entry.
  EXPECT_TRUE(std::any_of(failed_over.begin(), failed_over.end(),
                          [&](const auto& e) { return e.id == c; }));

  d1.stop();
  d2.stop();
  r1.stop();
  r2.stop();
  standby.stop();
  reference.stop();
}

// Tentpole drill: a gracefully restarted coordinator resumes from
// (snapshot + journal) and re-broadcasts a bit-identical schedule without
// a single snapshot request — no re-teach round.
TEST(HighAvailability, RestoreResumesBitIdenticalSchedule) {
  const std::string dir = freshDir("restore");
  CoordinatorConfig cfg = fastCoordinator();
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_interval = 0.05;
  // A scheduler stall (sanitizer runs) past the liveness window would
  // evict daemon 7 and zero its sizes mid-drill; this test is about
  // checkpoint restore, so keep the watchdogs out of it.
  cfg.liveness_timeout_intervals = 0;
  cfg.one_way_timeout_intervals = 0;
  auto coordinator = std::make_unique<Coordinator>(cfg);
  coordinator->start();
  const std::uint16_t port = coordinator->port();

  DaemonConfig dcfg = fastDaemon(port, 7);
  // Symmetrically, a stall past the daemon's staleness window would force
  // a reconnect, whose dropPeer zeroes the sizes until the re-teach lands
  // — a transient the bit-identity capture below must not race.
  dcfg.stale_after_intervals = 0;
  Daemon daemon(dcfg);
  daemon.start();
  AaloClient client(port);
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();
  daemon.reportBytes(a, 480.0 * util::kMB);  // Queue 2 at default D-CLAS.
  daemon.reportBytes(b, 13.0 * util::kMB);   // Queue 1 (Q1 = 10 MB).
  waitFor([&] { return daemon.queueOf(a) > 0 && daemon.queueOf(b) > 0; });

  // Capture from the coordinator itself, once both reports are applied.
  std::vector<net::ScheduleEntry> before;
  waitFor([&] {
    before = coordinator->scheduleSnapshot();
    return before.size() == 2 &&
           std::all_of(before.begin(), before.end(),
                       [](const auto& e) { return e.queue > 0; });
  });
  const auto epoch_before = coordinator->epoch();
  coordinator->stop();  // Final flush + snapshot.
  coordinator.reset();
  waitFor([&] { return !daemon.connected(); });

  CoordinatorConfig cfg2 = cfg;
  cfg2.port = port;  // Same endpoint so the daemon finds it again.
  Coordinator restarted(cfg2);
  restarted.start();
  EXPECT_EQ(restarted.stats().checkpoint_restores.load(
                std::memory_order_relaxed),
            1u);
  EXPECT_EQ(restarted.stats().checkpoint_restore_failures.load(
                std::memory_order_relaxed),
            0u);
  // Bit-identical before any daemon reconnects or re-teaches.
  EXPECT_TRUE(sameSchedule(restarted.scheduleSnapshot(), before));
  EXPECT_GE(restarted.epoch(), epoch_before);
  EXPECT_EQ(restarted.registeredCoflows(), 2u);

  // The daemon reconnects, gets a connect-time snapshot, and never needs
  // to ask for one: zero kSnapshotRequests, schedule still identical.
  waitFor([&] { return daemon.connected(); }, 10000ms);
  waitFor([&] { return restarted.daemonCount() == 1; });
  waitFor([&] { return daemon.queueOf(a) > 0 && daemon.queueOf(b) > 0; });
  EXPECT_TRUE(sameSchedule(restarted.scheduleSnapshot(), before));
  EXPECT_EQ(restarted.stats().snapshot_requests.load(
                std::memory_order_relaxed),
            0u);

  daemon.stop();
  restarted.stop();
}

// A restart with a corrupt checkpoint falls back to the classic re-teach
// path: daemons' forced absolute reports rebuild the schedule.
TEST(HighAvailability, CorruptCheckpointFallsBackToReteach) {
  const std::string dir = freshDir("corrupt_fallback");
  CoordinatorConfig cfg = fastCoordinator();
  cfg.checkpoint_dir = dir;
  auto coordinator = std::make_unique<Coordinator>(cfg);
  coordinator->start();
  const std::uint16_t port = coordinator->port();
  Daemon daemon(fastDaemon(port, 3));
  daemon.start();
  AaloClient client(port);
  const auto id = client.registerCoflow();
  daemon.reportBytes(id, 32.0 * util::kMB);
  waitFor([&] { return daemon.queueOf(id) > 0; });
  coordinator->stop();
  coordinator.reset();

  // Flip a byte in the snapshot: the restore must reject it wholly.
  const std::string snap = dir + "/schedule.ckpt";
  {
    std::ifstream in(snap, std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    ASSERT_GT(bytes.size(), 16u);
    bytes[bytes.size() / 2] ^= 0x7f;
    std::ofstream out(snap, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  CoordinatorConfig cfg2 = cfg;
  cfg2.port = port;
  Coordinator restarted(cfg2);
  restarted.start();
  EXPECT_EQ(restarted.stats().checkpoint_restores.load(
                std::memory_order_relaxed),
            0u);
  EXPECT_EQ(restarted.stats().checkpoint_restore_failures.load(
                std::memory_order_relaxed),
            1u);
  EXPECT_EQ(restarted.registeredCoflows(), 0u);
  // Re-teach: the daemon's forced full report restores the demotion.
  waitFor([&] { return daemon.connected() && daemon.queueOf(id) > 0; },
          10000ms);
  daemon.stop();
  restarted.stop();
}

// Satellite regression: a broadcast torn mid-frame (sender killed inside
// a write) must be discarded by framing — never half-applied, never
// counted as a malformed frame — and the daemon reconverges cleanly.
TEST(HighAvailability, TornBroadcastDiscardedCleanly) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();

  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coordinator.port();
  pcfg.seed = 42;
  pcfg.upstream_to_client.kill_mid_frame = 0.05;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  Daemon daemon(fastDaemon(proxy.port(), 4));
  daemon.start();
  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();
  daemon.reportBytes(id, 32.0 * util::kMB);

  waitFor(
      [&] {
        return proxy.stats().frames_torn.load(std::memory_order_relaxed) >= 3;
      },
      20000ms);
  // Heal the link: the daemon must reconnect and fully reconverge.
  proxy.setPolicies({}, {});
  waitFor([&] { return daemon.connected() && daemon.queueOf(id) > 0; },
          10000ms);
  // Every tear severed the session before a complete frame could form, so
  // nothing ever reached the decoder half-built.
  EXPECT_EQ(daemon.stats().malformed_frames.load(std::memory_order_relaxed),
            0u);
  EXPECT_GE(daemon.stats().reconnects.load(std::memory_order_relaxed), 2u);

  daemon.stop();
  proxy.stop();
  coordinator.stop();
}

// Satellite regression: the reconnect backoff must reset only after a
// connection actually syncs a schedule. A crash-looping coordinator whose
// accepts immediately die used to reset the backoff on every successful
// dial, turning the daemon into a tight-loop redialer.
TEST(HighAvailability, BackoffResetsOnlyAfterSyncedSchedule) {
  auto [listener, port] = net::listenTcp(0);
  std::atomic<bool> trap_running{true};
  // Accept-then-close trap: every dial succeeds, every connection dies
  // before a single schedule broadcast.
  std::thread trap([&, listener_fd = listener.get()] {
    while (trap_running.load(std::memory_order_relaxed)) {
      [[maybe_unused]] net::Fd conn = net::acceptTcp(listener_fd);
      std::this_thread::sleep_for(1ms);
    }
  });

  DaemonConfig dcfg = fastDaemon(port, 9);
  dcfg.reconnect_interval = 0.01;
  dcfg.reconnect_max_backoff = 0.5;
  Daemon daemon(dcfg);
  daemon.start();

  waitFor(
      [&] {
        return daemon.stats().reconnect_attempts.load(
                   std::memory_order_relaxed) >= 6;
      },
      15000ms);
  // Dials keep succeeding but never sync: the backoff must have grown.
  EXPECT_GT(daemon.currentReconnectBackoff(), dcfg.reconnect_interval);

  trap_running.store(false, std::memory_order_relaxed);
  trap.join();
  listener.reset();

  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.port = port;
  Coordinator coordinator(ccfg);
  coordinator.start();
  waitFor([&] { return daemon.connected(); }, 15000ms);
  // Only now — first schedule applied — does the backoff return to base.
  waitFor([&] {
    return util::nearlyEqual(daemon.currentReconnectBackoff(),
                             dcfg.reconnect_interval);
  });

  daemon.stop();
  coordinator.stop();
}

// Satellite drill: one peer that stops draining its socket must not slow
// the round loop — its broadcasts are skipped (coalesced into a later
// snapshot) and the hard queue cap eventually isolates it, while a
// healthy daemon stays synced throughout.
TEST(HighAvailability, OverloadCoalescesAndIsolatesSlowPeer) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.send_queue_max = 64 * 1024;
  // Disable the report watchdogs: this drill is about a peer that reads
  // nothing, and it must be the *backpressure* path that isolates it.
  ccfg.liveness_timeout_intervals = 0;
  ccfg.one_way_timeout_intervals = 0;
  Coordinator coordinator(ccfg);
  coordinator.start();

  Daemon healthy(fastDaemon(coordinator.port(), 1));
  healthy.start();

  // Slow peer: says Hello, teaches the coordinator a wide schedule, then
  // never reads another byte.
  net::EventLoop loop;
  net::Fd fd = net::connectTcp(coordinator.port());
  auto slow = std::make_unique<net::Connection>(
      loop, std::move(fd), [](net::Buffer&) {}, [] {});
  net::Message hello;
  hello.type = net::MessageType::kHello;
  hello.daemon_id = 99;
  net::Buffer frame;
  net::encodeMessage(hello, frame);
  slow->sendFrame(frame);
  net::Message report;
  report.type = net::MessageType::kSizeReport;
  report.daemon_id = 99;
  for (std::int64_t i = 0; i < 3000; ++i) {
    report.sizes.push_back(
        {{i + 1000, 0}, 1024.0 * static_cast<double>(i + 1)});
  }
  frame.clear();
  net::encodeMessage(report, frame);
  slow->sendFrame(frame);
  // Drain our own writes, then go silent (stop reading broadcasts).
  waitFor([&] {
    loop.runOnce(std::chrono::milliseconds(1));
    return slow->pendingBytes() == 0;
  });
  waitFor([&] { return coordinator.daemonCount() == 2; });
  // Big frames: the slow peer asks for a full snapshot every round (its
  // writes still go out; it only stops reading).
  std::atomic<bool> asking{true};
  std::thread asker([&] {
    net::Message request;
    request.type = net::MessageType::kSnapshotRequest;
    request.daemon_id = 99;
    net::Buffer out;
    net::encodeMessage(request, out);
    while (asking.load(std::memory_order_relaxed)) {
      slow->sendFrame(out);
      std::this_thread::sleep_for(5ms);
    }
  });

  // Snapshots pile up in the slow peer's queue until it crosses
  // send_queue_max; from then on the coordinator skips it every round
  // (one coalesce per skipped broadcast) instead of queueing unboundedly
  // — the soft skip parks the queue *below* the 4x hard cap, so the peer
  // stays connected but frozen.
  waitFor(
      [&] {
        return coordinator.stats().broadcasts_coalesced.load(
                   std::memory_order_relaxed) >= 3;
      },
      20000ms);
  // The round loop never stalls: epochs keep advancing at full rate and
  // the healthy daemon keeps applying them.
  const auto epoch_at = coordinator.epoch();
  waitFor([&] { return coordinator.epoch() >= epoch_at + 10; }, 10000ms);
  EXPECT_TRUE(healthy.connected());
  const auto healthy_epoch = healthy.lastEpoch();
  waitFor([&] { return healthy.lastEpoch() > healthy_epoch; });
  // The skip is persistent, not a one-off: coalesces keep accumulating
  // while the peer stays parked (in production the liveness watchdog,
  // disabled here, would evict it).
  const auto coalesced_at = coordinator.stats().broadcasts_coalesced.load(
      std::memory_order_relaxed);
  waitFor([&] {
    return coordinator.stats().broadcasts_coalesced.load(
               std::memory_order_relaxed) >= coalesced_at + 10;
  });
  EXPECT_EQ(coordinator.daemonCount(), 2u);
  EXPECT_TRUE(healthy.connected());

  asking.store(false, std::memory_order_relaxed);
  asker.join();
  healthy.stop();
  coordinator.stop();
}

// The hard backstop beneath the coordinator's soft skip: a connection
// whose userspace send queue would exceed its limit is closed outright
// rather than buffering without bound.
TEST(HighAvailability, SendQueueHardCapClosesConnection) {
  auto [listener, port] = net::listenTcp(0);
  net::Fd server_side;  // Accepted but never read: the kernel buffers
                        // fill, then the sender's userspace queue grows.
  net::EventLoop loop;
  net::Fd fd = net::connectTcp(port);
  waitFor([&] {
    if (!server_side.valid()) server_side = net::acceptTcp(listener.get());
    return server_side.valid();
  });

  net::ConnMetrics wire;
  net::Connection conn(loop, std::move(fd), [](net::Buffer&) {}, [] {}, &wire);
  conn.setSendQueueLimit(64 * 1024);
  net::Buffer frame;
  const std::vector<std::uint8_t> payload(32 * 1024, 0xab);
  frame.append(payload.data(), payload.size());

  int sent = 0;
  while (!conn.closed() && sent < 4096) {
    conn.sendFrame(frame);
    ++sent;
  }
  EXPECT_TRUE(conn.closed());
  EXPECT_EQ(wire.overflow_closes.load(std::memory_order_relaxed), 1u);
  EXPECT_LE(conn.pendingBytes(), 64u * 1024u);
}

// A scripted coordinator: a listening socket the test pumps by hand. It
// accepts one peer (a daemon, or a standby that subscribes), records every
// frame that peer sends, and sends whatever schedule frames the script
// dictates — including ones a real coordinator never would.
struct ScriptedPrimary {
  ScriptedPrimary() {
    auto [fd, bound] = net::listenTcp(0);
    listener = std::move(fd);
    port = bound;
  }

  void pumpUntil(auto predicate) {
    waitFor([&] {
      loop.runOnce(std::chrono::milliseconds(2));
      if (!peer) {
        net::Fd fd = net::acceptTcp(listener.get());
        if (fd.valid()) {
          peer = std::make_unique<net::Connection>(
              loop, std::move(fd),
              [this](net::Buffer& payload) {
                received.push_back(net::decodeMessage(payload));
              },
              net::Connection::CloseHandler{});
        }
      }
      return predicate();
    });
  }

  const net::Message* lastOfType(net::MessageType type) const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (it->type == type) return &*it;
    }
    return nullptr;
  }

  /// Sends `m` and pumps until the bytes have left the userspace queue.
  void send(const net::Message& m) {
    net::Buffer out;
    net::encodeMessage(m, out);
    peer->sendFrame(out);
    pumpUntil([&] { return peer->pendingBytes() == 0; });
  }

  static net::Message snapshot(std::uint64_t epoch,
                               std::vector<net::ScheduleEntry> entries) {
    net::Message m;
    m.type = net::MessageType::kScheduleUpdate;
    m.epoch = epoch;
    m.fence = 1;
    m.schedule = std::move(entries);
    return m;
  }

  static net::Message delta(std::uint64_t epoch, std::uint64_t base_epoch,
                            std::vector<net::ScheduleEntry> entries) {
    net::Message m = snapshot(epoch, std::move(entries));
    m.type = net::MessageType::kScheduleDelta;
    m.base_epoch = base_epoch;
    return m;
  }

  net::EventLoop loop;
  net::Fd listener;
  std::uint16_t port = 0;
  std::unique_ptr<net::Connection> peer;
  std::vector<net::Message> received;
};

net::ScheduleEntry entryAt(coflow::CoflowId id, std::int32_t queue) {
  return net::ScheduleEntry{.id = id, .global_bytes = 0, .queue = queue, .on = true};
}

// A standby applies the primary's stream by the daemons' rules: a snapshot
// replayed below the applied epoch (a duplicate, or a frame reordered
// behind a newer delta) must not roll the mirror back. Without the epoch
// guard it dropped C, and promotion then tombstoned a live coflow.
TEST(HighAvailability, StandbyIgnoresSnapshotBelowAppliedEpoch) {
  ScriptedPrimary primary;
  CoordinatorConfig scfg = fastCoordinator();
  scfg.standby_of = primary.port;
  scfg.takeover_intervals = 100;  // 0.5 s of silence, then promote.
  Coordinator standby(scfg);
  standby.start();
  primary.pumpUntil([&] {
    return primary.lastOfType(net::MessageType::kFollowerSubscribe) != nullptr;
  });

  const coflow::CoflowId a{1, 0}, b{2, 0}, c{3, 0};
  primary.send(ScriptedPrimary::snapshot(5, {entryAt(a, 0), entryAt(b, 0)}));
  primary.send(ScriptedPrimary::delta(6, 5, {entryAt(c, 0)}));
  primary.send(ScriptedPrimary::snapshot(5, {entryAt(a, 0), entryAt(b, 0)}));
  // An empty heartbeat on top of e6: applied only if the replay was not.
  primary.send(ScriptedPrimary::delta(7, 6, {}));
  waitFor([&] {
    return standby.stats().follower_frames_applied.load(
               std::memory_order_relaxed) == 3;
  });

  waitFor([&] { return standby.isPrimary(); }, 10000ms);
  const auto schedule = standby.scheduleSnapshot();
  ASSERT_EQ(schedule.size(), 3u);
  for (const auto& id : {a, b, c}) {
    EXPECT_TRUE(std::any_of(schedule.begin(), schedule.end(),
                            [&](const auto& e) { return e.id == id; }))
        << id.toString();
  }
  EXPECT_EQ(standby.tombstoneCount(), 0u);
  standby.stop();
}

// A delta that does not build on the standby's applied epoch is a gap: it
// is not applied, and the standby asks the primary for a snapshot.
TEST(HighAvailability, StandbyRequestsSnapshotOnDeltaGap) {
  ScriptedPrimary primary;
  CoordinatorConfig scfg = fastCoordinator();
  scfg.standby_of = primary.port;
  scfg.takeover_intervals = 100;
  Coordinator standby(scfg);
  standby.start();
  primary.pumpUntil([&] {
    return primary.lastOfType(net::MessageType::kFollowerSubscribe) != nullptr;
  });

  const coflow::CoflowId a{1, 0}, b{2, 0};
  primary.send(ScriptedPrimary::snapshot(5, {entryAt(a, 0)}));
  primary.send(ScriptedPrimary::delta(8, 7, {entryAt(b, 0)}));
  primary.pumpUntil([&] {
    return primary.lastOfType(net::MessageType::kSnapshotRequest) != nullptr;
  });
  EXPECT_EQ(primary.lastOfType(net::MessageType::kSnapshotRequest)->epoch, 5u);
  EXPECT_EQ(standby.stats().follower_frames_applied.load(
                std::memory_order_relaxed),
            1u);

  waitFor([&] { return standby.isPrimary(); }, 10000ms);
  const auto schedule = standby.scheduleSnapshot();
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule[0].id, a);
  standby.stop();
}

// The coordinator's side of a digest drill: a real ScheduleState makes
// every frame, exactly as Coordinator::broadcastSchedule would.
struct ScheduleSource {
  explicit ScheduleSource(std::size_t max_on)
      : state({1.0 * util::kMB, 10.0 * util::kMB, 100.0 * util::kMB}, max_on) {}

  net::Message delta() {
    net::Message m;
    m.type = net::MessageType::kScheduleDelta;
    m.epoch = ++epoch;
    m.base_epoch = epoch - 1;
    m.fence = 1;
    state.buildDelta(m.schedule, m.removals);
    m.schedule_digest = state.scheduleDigest();
    return m;
  }

  net::Message snapshot() {
    net::Message m = delta();  // The round's delta drains the changes.
    m.type = net::MessageType::kScheduleUpdate;
    m.base_epoch = 0;
    m.removals.clear();
    state.snapshotEntries(m.schedule);
    return m;
  }

  /// `id`'s entry as a snapshot carries it.
  net::ScheduleEntry entryOf(const coflow::CoflowId& id) {
    std::vector<net::ScheduleEntry> entries;
    state.snapshotEntries(entries);
    return *std::find_if(entries.begin(), entries.end(),
                         [&](const auto& e) { return e.id == id; });
  }

  ScheduleState state;
  std::uint64_t epoch = 0;
};

// A follower whose copy of the schedule silently diverged — one entry's
// queue, or under a §6.2 ON budget one ON bit — detects it on the next
// delta by its digest, asks for one snapshot, and is repaired by it.
// The divergence is planted by a delta that lies about one entry and
// carries the digest of the lie, so no check fails when it applies.
void divergenceDrill(bool standby, std::size_t max_on) {
  SCOPED_TRACE(std::string(standby ? "standby" : "daemon") + " max_on " +
               std::to_string(max_on));
  ScriptedPrimary primary;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Coordinator> follower;
  if (standby) {
    CoordinatorConfig scfg = fastCoordinator();
    scfg.standby_of = primary.port;
    scfg.takeover_intervals = 2000;  // No promotion during the drill.
    follower = std::make_unique<Coordinator>(scfg);
    follower->start();
    primary.pumpUntil([&] {
      return primary.lastOfType(net::MessageType::kFollowerSubscribe) != nullptr;
    });
  } else {
    DaemonConfig dcfg = fastDaemon(primary.port, 7);
    dcfg.stale_after_intervals = 0;  // The script paces the frames.
    dcfg.resync_intervals = 0;       // Full reports only when forced.
    daemon = std::make_unique<Daemon>(dcfg);
    daemon->start();
    primary.pumpUntil([&] {
      return primary.lastOfType(net::MessageType::kHello) != nullptr;
    });
  }
  const RobustnessStats& stats = standby ? follower->stats() : daemon->stats();
  std::uint64_t applied = 0;
  const auto sendApplied = [&](const net::Message& m) {
    primary.send(m);
    ++applied;
    primary.pumpUntil([&] {
      return standby ? stats.follower_frames_applied.load() == applied
                     : daemon->lastEpoch() == m.epoch;
    });
  };
  const auto requests = [&] {
    return std::count_if(primary.received.begin(), primary.received.end(),
                         [](const net::Message& m) {
                           return m.type == net::MessageType::kSnapshotRequest;
                         });
  };

  // a and b demoted to queues 1 and 2; c and d new in queue 0, the ON set
  // under a budget of 2.
  ScheduleSource source(max_on);
  const coflow::CoflowId a{1, 0}, b{2, 0}, c{3, 0}, d{4, 0};
  for (const auto& id : {a, b, c, d}) source.state.registerCoflow(id);
  source.state.applySize(1, a, 5 * util::kMB);
  source.state.applySize(1, b, 50 * util::kMB);
  sendApplied(source.snapshot());
  sendApplied(source.delta());
  if (daemon) {
    // The connect-time full report is out, so a later one was forced.
    primary.pumpUntil([&] { return stats.resync_reports.load() >= 1; });
  }

  // The lie: b one queue lower, or d switched OFF.
  const net::ScheduleEntry truth = source.entryOf(max_on == 0 ? b : d);
  net::ScheduleEntry wrong = truth;
  if (max_on == 0) {
    ++wrong.queue;
  } else {
    wrong.on = !wrong.on;
  }
  net::Message lie = source.delta();
  lie.schedule = {wrong};
  lie.schedule_digest += net::scheduleEntryHash(wrong.id, wrong.queue, wrong.on) -
                         net::scheduleEntryHash(truth.id, truth.queue, truth.on);
  sendApplied(lie);
  EXPECT_EQ(stats.schedule_digest_mismatches.load(), 0u);
  if (daemon) {
    EXPECT_EQ(daemon->queueOf(b), max_on == 0 ? 3 : 2);
    EXPECT_EQ(daemon->isOn(d), max_on == 0);
  }
  const auto resyncs = stats.resync_reports.load();

  // The next frame detects it: one mismatch, one snapshot request.
  const net::Message detect = source.delta();
  sendApplied(detect);
  EXPECT_EQ(stats.schedule_digest_mismatches.load(), 1u);
  primary.pumpUntil([&] { return requests() == 1; });
  EXPECT_EQ(primary.lastOfType(net::MessageType::kSnapshotRequest)->epoch,
            detect.epoch);
  if (daemon) {
    // The gap path's forced full report rides along.
    primary.pumpUntil([&] { return stats.resync_reports.load() > resyncs; });
  }

  // The snapshot that answers it restores the coordinator's schedule.
  sendApplied(source.snapshot());
  if (daemon) {
    EXPECT_EQ(daemon->queueOf(b), 2);
    EXPECT_TRUE(daemon->isOn(d));
  }
  // Repaired: the next digests agree, and nothing more is asked.
  sendApplied(source.delta());
  sendApplied(source.delta());
  EXPECT_EQ(stats.schedule_digest_mismatches.load(), 1u);
  EXPECT_EQ(stats.schedule_gaps.load(), 0u);
  primary.pumpUntil([] { return true; });
  EXPECT_EQ(requests(), 1);
  if (daemon) daemon->stop();
  if (follower) follower->stop();
}

TEST(HighAvailability, DaemonDigestRepairsDivergedQueue) { divergenceDrill(false, 0); }
TEST(HighAvailability, DaemonDigestRepairsDivergedOnBit) { divergenceDrill(false, 2); }
TEST(HighAvailability, StandbyDigestRepairsDivergedQueue) { divergenceDrill(true, 0); }
TEST(HighAvailability, StandbyDigestRepairsDivergedOnBit) { divergenceDrill(true, 2); }

// rateFor places every coflow in the queue queueOf reports: the max of the
// schedule's queue and local D-CLAS, so a coflow whose local bytes already
// crossed a threshold is never rated above the queue it left.
TEST(HighAvailability, DaemonRatesCoflowsInTheQueueQueueOfReports) {
  ScriptedPrimary primary;
  DaemonConfig dcfg = fastDaemon(primary.port, 5);
  dcfg.stale_after_intervals = 0;  // The script sends a single schedule.
  Daemon daemon(dcfg);
  daemon.start();
  primary.pumpUntil([&] {
    return primary.lastOfType(net::MessageType::kHello) != nullptr;
  });

  // X is the older coflow (FIFO head); the schedule still has both at q0,
  // but X's 50 MB of local bytes put it past the 10 MB Q1 threshold.
  const coflow::CoflowId x{1, 0}, y{2, 0};
  daemon.writerActive(x, true);
  daemon.writerActive(y, true);
  daemon.reportBytes(x, 50.0 * util::kMB);
  primary.send(ScriptedPrimary::snapshot(1, {entryAt(x, 0), entryAt(y, 0)}));
  waitFor([&] { return daemon.lastEpoch() == 1; });
  ASSERT_TRUE(daemon.connected());

  EXPECT_EQ(daemon.queueOf(x), 1);
  EXPECT_EQ(daemon.queueOf(y), 0);
  // Queues 0 and 1 are occupied (weights 10 and 9 of K = 10), one coflow
  // each, so each takes its whole queue's share.
  EXPECT_DOUBLE_EQ(daemon.rateFor(x), dcfg.uplink_capacity * 9.0 / 19.0);
  EXPECT_DOUBLE_EQ(daemon.rateFor(y), dcfg.uplink_capacity * 10.0 / 19.0);
  daemon.stop();
}

}  // namespace
}  // namespace aalo::runtime
