// Runtime robustness: malformed frames and sizes, multiple clients,
// unregister cleanup, the §6.2 ON/OFF flow-gating signals, coalesced
// report ingress, and the coordinator's cross-thread surfaces under churn
// (these run under tsan with the rest of the "chaos" label).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "runtime/client.h"
#include "runtime/coordinator.h"
#include "runtime/daemon.h"
#include "tests/helpers.h"
#include "tests/support/raw_daemon.h"
#include "util/rng.h"
#include "util/units.h"

namespace aalo::runtime {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

using testing::RawDaemon;
using testing::waitFor;

/// How long a wait in this suite may take.
constexpr auto kWait = 3000ms;

CoordinatorConfig fastCoordinator() {
  CoordinatorConfig cfg;
  cfg.sync_interval = 0.005;
  return cfg;
}

TEST(RuntimeRobustness, CoordinatorSurvivesMalformedFrames) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();

  // Hand-roll a client that sends garbage frames.
  net::EventLoop loop;
  net::Fd fd = net::connectTcp(coordinator.port());
  net::Connection conn(loop, std::move(fd), {}, {});
  net::Buffer garbage;
  garbage.putU8(99);  // Unknown type.
  garbage.putU64(123456);
  conn.sendFrame(garbage);
  net::Buffer truncated;
  truncated.putU8(2);  // RegisterCoflow missing its fields.
  conn.sendFrame(truncated);
  for (int i = 0; i < 20; ++i) loop.runOnce(std::chrono::milliseconds(5));

  // Coordinator still alive and serving real clients.
  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();
  EXPECT_EQ(id.internal, 0);
  coordinator.stop();
}

// A size that is NaN, infinite or negative never reaches the schedule: the
// coordinator drops each one before it is applied or journaled, and
// counts it.
TEST(RuntimeRobustness, NonFiniteAndNegativeSizesAreRejectedAtIngress) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.liveness_timeout_intervals = 0;  // The raw daemon reports only twice.
  ccfg.one_way_timeout_intervals = 0;
  Coordinator coordinator(ccfg);
  coordinator.start();
  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();

  net::EventLoop loop;
  RawDaemon daemon(loop, coordinator.port(), 1);
  daemon.send(net::MessageType::kSizeReport, {{a, 20 * util::kMB}});
  waitFor([&] {
    loop.runOnce(std::chrono::milliseconds(2));
    const auto global = coordinator.globalSizes();
    return global.contains(a) && global.at(a) == 20 * util::kMB;
  }, kWait);
  const auto sizes_before = coordinator.globalSizes();
  const auto schedule_before = coordinator.scheduleSnapshot();

  daemon.send(net::MessageType::kSizeReport,
              {{a, std::numeric_limits<double>::quiet_NaN()},
               {b, std::numeric_limits<double>::infinity()},
               {a, -1e12}});
  waitFor([&] {
    loop.runOnce(std::chrono::milliseconds(2));
    return coordinator.stats().rejected_sizes.load() == 3;
  }, kWait);
  EXPECT_EQ(coordinator.globalSizes(), sizes_before);
  EXPECT_EQ(coordinator.scheduleSnapshot(), schedule_before);
  EXPECT_NE(coordinator.metrics().renderPrometheus().find(
                "aalo_coordinator_rejected_sizes_total 3"),
            std::string::npos);
  coordinator.stop();
}

/// The value of the sample `name` (no labels) in a Prometheus text dump.
double promSample(const std::string& text, const std::string& name) {
  const auto at = text.find("\n" + name + " ");
  if (at == std::string::npos) return -1;
  return std::stod(text.substr(at + name.size() + 2));
}

/// Bytes the coordinator holds for `id`, 0 when it holds none.
double heldBytes(Coordinator& coordinator, const coflow::CoflowId& id) {
  const auto global = coordinator.globalSizes();
  return global.contains(id) ? global.at(id) : 0.0;
}

/// A coordinator, one registered coflow, and daemon 1 on a raw connection
/// that has reported 20 MB of it.
struct OneReportingDaemon {
  OneReportingDaemon()
      : coordinator([] {
          CoordinatorConfig ccfg = fastCoordinator();
          ccfg.liveness_timeout_intervals = 0;  // The raw daemon reports once.
          ccfg.one_way_timeout_intervals = 0;
          return ccfg;
        }()) {
    coordinator.start();
    AaloClient client(coordinator.port());
    coflow = client.registerCoflow();
    daemon = std::make_unique<RawDaemon>(loop, coordinator.port(), 1);
    daemon->send(net::MessageType::kSizeReport, {{coflow, 20 * util::kMB}});
    waitFor([&] {
      loop.runOnce(std::chrono::milliseconds(2));
      return heldBytes(coordinator, coflow) == 20 * util::kMB;
    }, kWait);
    EXPECT_EQ(coordinator.daemonCount(), 1u);
  }
  ~OneReportingDaemon() { coordinator.stop(); }

  Coordinator coordinator;
  coflow::CoflowId coflow;
  net::EventLoop loop;
  std::unique_ptr<RawDaemon> daemon;
};

// A connection says Hello once. A second Hello under the same id is
// ignored and counted: the connection stays one daemon, so once it is
// gone no daemon is counted and none of its bytes are held.
TEST(RuntimeRobustness, RepeatedHelloUnderTheSameIdIsIgnored) {
  OneReportingDaemon t;
  t.daemon->hello(1);
  waitFor([&] {
    t.loop.runOnce(std::chrono::milliseconds(2));
    return t.coordinator.stats().repeated_hellos.load() == 1;
  }, kWait);
  EXPECT_EQ(t.coordinator.daemonCount(), 1u);
  EXPECT_EQ(heldBytes(t.coordinator, t.coflow), 20 * util::kMB);
  t.daemon->disconnect();
  waitFor([&] { return t.coordinator.daemonCount() == 0; }, kWait);
  EXPECT_EQ(heldBytes(t.coordinator, t.coflow), 0.0);
  EXPECT_EQ(promSample(t.coordinator.metrics().renderPrometheus(),
                       "aalo_coordinator_repeated_hellos_total"),
            1);
}

// A second Hello under another id would leave the first id's sizes held
// for good: the coordinator counts it and closes the connection, which
// drops them.
TEST(RuntimeRobustness, RepeatedHelloUnderAnotherIdClosesTheConnection) {
  OneReportingDaemon t;
  t.daemon->hello(2);
  waitFor([&] {
    t.loop.runOnce(std::chrono::milliseconds(2));
    return t.coordinator.stats().repeated_hellos.load() == 1 &&
           t.coordinator.daemonCount() == 0;
  }, kWait);
  EXPECT_EQ(heldBytes(t.coordinator, t.coflow), 0.0);
  EXPECT_EQ(promSample(t.coordinator.metrics().renderPrometheus(),
                       "aalo_coordinator_repeated_hellos_total"),
            1);
}

// Two connections say Hello as one daemon id, as a daemon that redials
// before its old connection is closed does: the id has one owner, the
// newer connection, and the older one is closed and counted. Its close
// drops the old connection's sizes, as a close the coordinator saw first
// would.
TEST(RuntimeRobustness, TwoConnectionsOneIdCountOneDaemon) {
  OneReportingDaemon t;
  RawDaemon redialed(t.loop, t.coordinator.port(), 1);
  waitFor([&] {
    t.loop.runOnce(std::chrono::milliseconds(2));
    return t.coordinator.stats().daemon_handovers.load() == 1;
  }, kWait);
  EXPECT_EQ(t.coordinator.daemonCount(), 1u);
  EXPECT_EQ(heldBytes(t.coordinator, t.coflow), 0.0);
  const std::string text = t.coordinator.metrics().renderPrometheus();
  EXPECT_EQ(promSample(text, "aalo_coordinator_daemons"), 1);
  EXPECT_EQ(promSample(text, "aalo_coordinator_daemon_handovers_total"), 1);
  redialed.disconnect();
  waitFor([&] { return t.coordinator.daemonCount() == 0; }, kWait);
  EXPECT_EQ(heldBytes(t.coordinator, t.coflow), 0.0);
}

// The new owner's reports follow its Hello, so the handover's drop of A's
// sizes comes first, and A's own close later drops nothing: B's 30 MB
// survive it.
TEST(RuntimeRobustness, TwoConnectionsOneIdKeepTheNewOwnersSizes) {
  OneReportingDaemon t;  // A: daemon 1, 20 MB.
  RawDaemon b(t.loop, t.coordinator.port(), 1);
  b.send(net::MessageType::kSizeReport, {{t.coflow, 30 * util::kMB}});
  waitFor([&] {
    t.loop.runOnce(std::chrono::milliseconds(2));
    return heldBytes(t.coordinator, t.coflow) == 30 * util::kMB;
  }, kWait);
  t.daemon->disconnect();
  const std::uint64_t closed_at = t.coordinator.epoch();
  waitFor([&] {
    t.loop.runOnce(std::chrono::milliseconds(2));
    return t.coordinator.epoch() >= closed_at + 3;
  }, kWait);
  EXPECT_EQ(heldBytes(t.coordinator, t.coflow), 30 * util::kMB);
  EXPECT_EQ(t.coordinator.daemonCount(), 1u);
}

// A size report or snapshot request from a connection that owns no
// daemon id is dropped and counted.
TEST(RuntimeRobustness, FramesOfAConnectionWithoutAnIdAreCounted) {
  OneReportingDaemon t;
  RawDaemon silent(t.loop, t.coordinator.port());
  silent.send(net::MessageType::kSizeReport, {{t.coflow, 50 * util::kMB}});
  silent.send(net::MessageType::kSnapshotRequest);
  waitFor([&] {
    t.loop.runOnce(std::chrono::milliseconds(2));
    return t.coordinator.stats().unowned_frames.load() == 2;
  }, kWait);
  EXPECT_EQ(heldBytes(t.coordinator, t.coflow), 20 * util::kMB);
  EXPECT_EQ(t.coordinator.stats().snapshot_requests.load(), 0u);
  EXPECT_EQ(promSample(t.coordinator.metrics().renderPrometheus(),
                       "aalo_coordinator_unowned_frames_total"),
            2);
}

/// Report frames 1..n of one daemon, in absolute sizes so the last one
/// wins: a dropped, re-applied or reordered report, or one that kept an
/// earlier frame's sizes, leaves other totals than `finalSizesAreApplied`
/// expects.
std::vector<net::Message> reportBurst(std::uint64_t daemon_id, int n,
                                      coflow::CoflowId a, coflow::CoflowId b) {
  std::vector<net::Message> out(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) {
    net::Message& m = out[static_cast<std::size_t>(i - 1)];
    m.type = net::MessageType::kSizeReport;
    m.daemon_id = daemon_id;
    m.sizes = {{a, i * util::kMB}};
    if (i % 7 == 0) m.sizes.push_back({b, i * 2 * util::kMB});
  }
  return out;
}

/// Pumps `loop` until the last of reportBurst(n)'s totals is applied,
/// then checks both coflows' totals.
void finalSizesAreApplied(net::EventLoop& loop, Coordinator& coordinator, int n,
                          coflow::CoflowId a, coflow::CoflowId b) {
  const double want_a = n * util::kMB;
  const double want_b = (n / 7 * 7) * 2 * util::kMB;
  waitFor([&] {
    loop.runOnce(std::chrono::milliseconds(2));
    const auto global = coordinator.globalSizes();
    return global.contains(a) && global.at(a) == want_a;
  }, kWait);
  const auto global = coordinator.globalSizes();
  EXPECT_EQ(global.at(a), want_a);
  EXPECT_EQ(global.at(b), want_b);
}

// Report ingress is timed per ingress pass, not per report: after N
// report frames the apply histogram holds at least one sample and at most
// N, and every report was applied, in order.
TEST(RuntimeRobustness, ReportApplyIsTimedOncePerIngressPass) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.liveness_timeout_intervals = 0;  // The raw daemon reports in bursts.
  ccfg.one_way_timeout_intervals = 0;
  Coordinator coordinator(ccfg);
  coordinator.start();
  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();

  net::EventLoop loop;
  RawDaemon daemon(loop, coordinator.port(), 1);
  constexpr int kReports = 300;
  for (const net::Message& m : reportBurst(1, kReports, a, b)) {
    daemon.send(m.type, m.sizes);
  }
  finalSizesAreApplied(loop, coordinator, kReports, a, b);
  const std::string text = coordinator.metrics().renderPrometheus();
  const double passes =
      promSample(text, "aalo_coordinator_report_apply_seconds_count");
  EXPECT_GE(passes, 1) << text;
  EXPECT_LE(passes, kReports) << text;
  coordinator.stop();
}

// Reports read in the same batch as their daemon's Hello wait for an
// ingress pass too: every one is applied, by a pass, and timed.
TEST(RuntimeRobustness, ReportsReadWithTheHelloAreAppliedByAPass) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.liveness_timeout_intervals = 0;
  ccfg.one_way_timeout_intervals = 0;
  Coordinator coordinator(ccfg);
  coordinator.start();
  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();

  net::EventLoop loop;
  constexpr int kReports = 300;
  RawDaemon daemon(loop, coordinator.port(), 1, reportBurst(1, kReports, a, b));
  finalSizesAreApplied(loop, coordinator, kReports, a, b);
  const std::string text = coordinator.metrics().renderPrometheus();
  EXPECT_GE(promSample(text, "aalo_coordinator_ingress_passes_total"), 1) << text;
  EXPECT_GE(promSample(text, "aalo_coordinator_report_apply_seconds_count"), 1)
      << text;
  coordinator.stop();
}

// A reply whose length is over the frame limit fails the attempt at once,
// counted, instead of buffering what follows until the RPC timeout.
TEST(RuntimeRobustness, OversizedReplyFrameFailsTheAttemptAtOnce) {
  auto [listener, port] = net::listenTcp(0);
  std::atomic<bool> done{false};
  // A fake coordinator: answers the first request with the header of a
  // frame one byte over the limit, then streams ~4 MB/s of junk until the
  // client hangs up (the whole frame would take ~16 s).
  std::thread fake([&, listener_fd = listener.get()] {
    net::Fd conn;
    while (!conn.valid() && !done) {
      conn = net::acceptTcp(listener_fd);
      std::this_thread::sleep_for(1ms);
    }
    std::uint8_t request[256];
    while (!done && ::recv(conn.get(), request, sizeof(request), MSG_DONTWAIT) <= 0) {
      std::this_thread::sleep_for(1ms);
    }
    net::Buffer header;
    header.putU32(net::kMaxFrameBytes + 1);
    const std::vector<std::uint8_t> junk(4096, 0x5a);
    bool open = ::send(conn.get(), header.peek(), 4, MSG_NOSIGNAL) == 4;
    while (open && !done) {
      open = ::send(conn.get(), junk.data(), junk.size(),
                    MSG_NOSIGNAL | MSG_DONTWAIT) >= 0 ||
             errno == EAGAIN || errno == EWOULDBLOCK;
      std::this_thread::sleep_for(1ms);
    }
  });

  ClientConfig cfg;
  cfg.coordinator_port = port;
  cfg.max_rpc_attempts = 1;
  cfg.rpc_timeout_ms = 5000;
  AaloClient client(cfg);
  const auto start = Clock::now();
  EXPECT_THROW(client.registerCoflow(), std::runtime_error);
  EXPECT_LT(Clock::now() - start, 1000ms);
  EXPECT_EQ(client.stats().malformed_frames.load(), 1u);
  done = true;
  fake.join();
}

TEST(RuntimeRobustness, MultipleClientsGetDistinctIds) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();
  AaloClient a(coordinator.port());
  AaloClient b(coordinator.port());
  const auto ia = a.registerCoflow();
  const auto ib = b.registerCoflow();
  const auto ia2 = a.registerCoflow();
  EXPECT_NE(ia, ib);
  EXPECT_NE(ib, ia2);
  EXPECT_NE(ia, ia2);
  coordinator.stop();
}

TEST(RuntimeRobustness, UnregisterRemovesFromSchedules) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();
  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();
  daemon.reportBytes(id, 50 * util::kMB);
  waitFor([&] { return daemon.queueOf(id) > 0; }, kWait);

  client.unregisterCoflow(id);
  waitFor([&] { return coordinator.registeredCoflows() == 0; }, kWait);
  // After the next schedule the daemon no longer knows the coflow: it
  // falls back to the highest-priority default.
  waitFor([&] { return daemon.queueOf(id) == 0; }, kWait);
  daemon.stop();
  coordinator.stop();
}

TEST(RuntimeRobustness, OnOffSignalsGateLowPriorityCoflows) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.max_on_coflows = 1;  // Only the top coflow may send (§6.2).
  ccfg.dclas.first_threshold = 1 * util::kMB;
  ccfg.dclas.num_queues = 3;
  Coordinator coordinator(ccfg);
  coordinator.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  dcfg.num_queues = 3;
  dcfg.uplink_capacity = 100.0;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto hot = client.registerCoflow();
  const auto cold = client.registerCoflow();
  daemon.writerActive(hot, true);
  daemon.writerActive(cold, true);
  // Demote 'cold' so 'hot' sorts first; with max_on=1, cold goes OFF.
  daemon.reportBytes(cold, 5 * util::kMB);
  waitFor([&] { return !daemon.isOn(cold); }, kWait);
  EXPECT_TRUE(daemon.isOn(hot));
  EXPECT_DOUBLE_EQ(daemon.rateFor(cold), 0.0);
  // The OFF coflow's share flows to the ON one: full uplink.
  EXPECT_DOUBLE_EQ(daemon.rateFor(hot), 100.0);

  daemon.writerActive(hot, false);
  daemon.writerActive(cold, false);
  daemon.stop();
  coordinator.stop();
}

TEST(RuntimeRobustness, OnByDefaultWithoutBudget) {
  Coordinator coordinator(fastCoordinator());  // max_on_coflows = 0.
  coordinator.start();
  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();
  daemon.reportBytes(a, 1.0);
  daemon.reportBytes(b, 1.0);
  waitFor([&] { return daemon.lastEpoch() >= 3; }, kWait);
  EXPECT_TRUE(daemon.isOn(a));
  EXPECT_TRUE(daemon.isOn(b));
  daemon.stop();
  coordinator.stop();
}

TEST(RuntimeRobustness, ScheduleEntryOnFlagRoundTrips) {
  net::Message m;
  m.type = net::MessageType::kScheduleUpdate;
  m.epoch = 1;
  m.schedule = {{{1, 0}, 100.0, 0, true}, {{2, 0}, 200.0, 1, false}};
  net::Buffer buffer;
  net::encodeMessage(m, buffer);
  const auto decoded = net::decodeMessage(buffer);
  ASSERT_EQ(decoded.schedule.size(), 2u);
  EXPECT_TRUE(decoded.schedule[0].on);
  EXPECT_FALSE(decoded.schedule[1].on);
}


TEST(RuntimeRobustness, StopIsIdempotentUnderConcurrentCallers) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();
  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  Daemon daemon(dcfg);
  daemon.start();
  waitFor([&] { return daemon.connected(); }, kWait);

  // Many threads race stop() on both components; every caller must return
  // only once shutdown has fully completed, and none may crash or hang.
  std::vector<std::thread> stoppers;
  stoppers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    stoppers.emplace_back([&] {
      daemon.stop();
      coordinator.stop();
    });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(daemon.connected());
  EXPECT_EQ(coordinator.daemonCount(), 0u);
  // Stopping again after the fact is still a no-op (destructors re-stop).
  daemon.stop();
  coordinator.stop();
}

TEST(RuntimeRobustness, ImmediateStopAfterStartNeverHangs) {
  // stop() may land before the loop thread has entered its loop; the stop
  // must still end it (it used to be cleared on loop entry and lost).
  for (int i = 0; i < 200; ++i) {
    Coordinator coordinator(fastCoordinator());
    coordinator.start();
    coordinator.stop();
  }
  Coordinator coordinator(fastCoordinator());
  coordinator.start();
  for (int i = 0; i < 200; ++i) {
    DaemonConfig dcfg;
    dcfg.coordinator_port = coordinator.port();
    dcfg.daemon_id = static_cast<std::uint64_t>(i + 1);
    dcfg.sync_interval = 0.005;
    Daemon daemon(dcfg);
    daemon.start();
    daemon.stop();
  }
  coordinator.stop();
}

// A frame whose element count claims 0xFFFFFFFF entries but carries only a
// few bytes, for every message kind with a count (and both counts of a
// delta). The decoder must reject each from the frame length alone,
// before reserving anything.
std::vector<net::Buffer> countBombs() {
  const auto frame = [](net::MessageType type, int header_u64s,
                        bool empty_entries_first) {
    net::Buffer b;
    b.putU8(static_cast<std::uint8_t>(type));
    for (int i = 0; i < header_u64s; ++i) b.putU64(7);
    if (empty_entries_first) b.putU32(0);
    b.putU32(0xFFFFFFFFu);
    while (b.readableBytes() < 40) b.putU8(0);
    return b;
  };
  std::vector<net::Buffer> bombs;
  bombs.push_back(frame(net::MessageType::kRegisterCoflow, 1, false));
  bombs.push_back(frame(net::MessageType::kSizeReport, 2, false));
  bombs.push_back(frame(net::MessageType::kScheduleUpdate, 2, false));
  bombs.push_back(frame(net::MessageType::kScheduleDelta, 3, false));
  bombs.push_back(frame(net::MessageType::kScheduleDelta, 3, true));
  return bombs;
}

TEST(RuntimeRobustness, DecoderRejectsCountsBeyondTheFrame) {
  for (net::Buffer& bomb : countBombs()) {
    ASSERT_LE(bomb.readableBytes(), 48u);
    const int type = *bomb.peek();
    // std::runtime_error, not std::bad_alloc: rejected before reserve().
    EXPECT_THROW(net::decodeMessage(bomb), std::runtime_error) << "type " << type;
  }
}

TEST(RuntimeRobustness, CoordinatorCountsOversizedCountFrames) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();
  net::EventLoop loop;
  net::Connection conn(loop, net::connectTcp(coordinator.port()), {}, {});
  auto bombs = countBombs();
  for (const net::Buffer& bomb : bombs) conn.sendFrame(bomb);
  waitFor([&] {
    loop.runOnce(std::chrono::milliseconds(5));
    return coordinator.stats().malformed_frames.load(
               std::memory_order_relaxed) >= bombs.size();
  }, kWait);
  AaloClient client(coordinator.port());
  EXPECT_EQ(client.registerCoflow().internal, 0);  // Still serving.
  coordinator.stop();
}

TEST(RuntimeRobustness, TombstonesAreCollectedOnceReportsPrune) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.tombstone_gc_intervals = 10;
  Coordinator coordinator(ccfg);
  coordinator.start();
  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();
  daemon.reportBytes(id, 50 * util::kMB);
  waitFor([&] { return daemon.queueOf(id) > 0; }, kWait);

  client.unregisterCoflow(id);
  waitFor([&] { return coordinator.tombstoneCount() >= 1; }, kWait);
  // The daemon notices the coflow left the schedule, prunes its local
  // accounting, stops mentioning it — and the tombstone is then GC'd.
  waitFor([&] {
    return daemon.stats().completed_coflows_pruned.load(
               std::memory_order_relaxed) >= 1;
  }, kWait);
  waitFor([&] { return coordinator.tombstoneCount() == 0; }, kWait);
  EXPECT_GE(coordinator.stats().tombstones_collected.load(
                std::memory_order_relaxed),
            1u);
  daemon.stop();
  coordinator.stop();
}

TEST(RuntimeRobustness, DaemonReconnectsAfterCoordinatorRestart) {
  auto coordinator = std::make_unique<Coordinator>(fastCoordinator());
  coordinator->start();
  const std::uint16_t port = coordinator->port();

  DaemonConfig dcfg;
  dcfg.coordinator_port = port;
  dcfg.daemon_id = 5;
  dcfg.sync_interval = 0.005;
  dcfg.reconnect_interval = 0.02;
  Daemon daemon(dcfg);
  daemon.start();
  waitFor([&] { return daemon.connected() && daemon.lastEpoch() >= 1; }, kWait);

  // Local observations made before the outage survive it (§3.2).
  const coflow::CoflowId id{0, 0};
  daemon.reportBytes(id, 7 * util::kMB);

  coordinator->stop();
  coordinator.reset();
  waitFor([&] { return !daemon.connected(); }, kWait);

  // Restart on the same port; the daemon must find it again.
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.port = port;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  coordinator = std::make_unique<Coordinator>(ccfg);
  coordinator->start();
  waitFor([&] { return daemon.connected(); }, kWait);
  waitFor([&] { return coordinator->daemonCount() == 1; }, kWait);
  // The retained local sizes reach the new coordinator and demote the
  // coflow past the 1 MB threshold.
  waitFor([&] { return daemon.queueOf(id) > 0; }, kWait);
  daemon.stop();
  coordinator->stop();
}

DaemonConfig churnDaemon(std::uint16_t port, std::uint64_t id) {
  DaemonConfig cfg;
  cfg.coordinator_port = port;
  cfg.daemon_id = id;
  cfg.sync_interval = 0.002;
  cfg.reconnect_interval = 0.01;
  return cfg;
}

CoordinatorConfig churnCoordinator() {
  CoordinatorConfig cfg;
  cfg.sync_interval = 0.002;  // Fast rounds: many ticks per test.
  return cfg;
}

// Ticks vs report apply vs register/unregister churn from concurrent
// clients vs daemons dropping and rejoining, with every external accessor
// hammered from another thread throughout. Functional assertions are
// loose (rounds advance, nothing deadlocks); the point is that tsan sees
// every cross-thread surface of the coordinator under load.
TEST(RuntimeRobustness, RoundsRaceFreeUnderConcurrentChurn) {
  Coordinator coordinator(churnCoordinator());
  coordinator.start();
  const std::uint16_t port = coordinator.port();

  constexpr int kDaemons = 6;
  // The mutex protects the *vector slots* (the churn thread swaps daemons
  // out) — the interesting concurrency is all on the coordinator side.
  std::mutex daemons_mutex;
  std::vector<std::unique_ptr<Daemon>> daemons;
  for (int d = 0; d < kDaemons; ++d) {
    daemons.push_back(std::make_unique<Daemon>(
        churnDaemon(port, static_cast<std::uint64_t>(d + 1))));
    daemons.back()->start();
  }
  waitFor([&] { return coordinator.daemonCount() == kDaemons; }, 10000ms);

  std::atomic<bool> stop{false};

  // Two client threads register/unregister coflows and feed them through
  // every daemon: registers, reports, unregisters and tombstones all race
  // with the ticks.
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      AaloClient client(port);
      std::vector<coflow::CoflowId> mine;
      std::uint64_t step = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto id = client.registerCoflow();
        mine.push_back(id);
        {
          std::lock_guard lock(daemons_mutex);
          for (int d = 0; d < kDaemons; ++d) {
            daemons[static_cast<std::size_t>(d)]->reportBytes(
                id, static_cast<double>((step + 1) * (d + 1)) * util::kMB);
          }
        }
        if (mine.size() > 8) {
          client.unregisterCoflow(mine.front());
          mine.erase(mine.begin());
        }
        ++step;
        std::this_thread::sleep_for(1ms * (c + 1));
      }
      for (const auto& id : mine) client.unregisterCoflow(id);
    });
  }

  // An observer thread reads every cross-thread accessor while rounds run.
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)coordinator.epoch();
      (void)coordinator.daemonCount();
      (void)coordinator.registeredCoflows();
      (void)coordinator.tombstoneCount();
      (void)coordinator.globalSizes();
      (void)coordinator.scheduleSnapshot();
      (void)coordinator.metrics().renderPrometheus();
      std::this_thread::sleep_for(3ms);
    }
  });

  // A churn thread kills and revives daemons: EOF-triggered drops and
  // rejoin snapshots race with everything above.
  std::thread churn([&] {
    std::uint64_t victim = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto idx = static_cast<std::size_t>(victim++ % kDaemons);
      {
        std::lock_guard lock(daemons_mutex);
        daemons[idx]->stop();
      }
      std::this_thread::sleep_for(10ms);
      {
        std::lock_guard lock(daemons_mutex);
        daemons[idx] = std::make_unique<Daemon>(
            churnDaemon(port, static_cast<std::uint64_t>(idx + 1)));
        daemons[idx]->start();
      }
      std::this_thread::sleep_for(20ms);
    }
  });

  // A second churn thread subscribes as a follower and asks for a
  // snapshot every few rounds, so snapshot encodes race the tick too.
  std::thread asker([&] {
    net::EventLoop loop;
    net::Connection follower(loop, net::connectTcp(port),
                             [](net::Buffer&) {}, [] {});
    net::Message subscribe;
    subscribe.type = net::MessageType::kFollowerSubscribe;
    net::Buffer out;
    net::encodeMessage(subscribe, out);
    follower.sendFrame(out);
    net::Message request;
    request.type = net::MessageType::kSnapshotRequest;
    out.clear();
    net::encodeMessage(request, out);
    while (!stop.load(std::memory_order_relaxed)) {
      follower.sendFrame(out);
      loop.runOnce(std::chrono::milliseconds(5));
    }
  });

  // Let it all collide across plenty of rounds.
  const std::uint64_t epoch_start = coordinator.epoch();
  std::this_thread::sleep_for(700ms);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  observer.join();
  churn.join();
  asker.join();

  EXPECT_GT(coordinator.epoch(), epoch_start + 20);
  for (auto& d : daemons) d->stop();
  waitFor([&] { return coordinator.daemonCount() == 0; }, 10000ms);
  coordinator.stop();
}

// Lifecycle races: stop() must fence out the tick in flight, posted work
// and deferred connection teardown — repeatedly, with live daemons
// attached each cycle.
TEST(RuntimeRobustness, StopStartCyclesWithLiveDaemons) {
  for (int cycle = 0; cycle < 5; ++cycle) {
    Coordinator coordinator(churnCoordinator());
    coordinator.start();

    std::vector<std::unique_ptr<Daemon>> daemons;
    for (int d = 0; d < 4; ++d) {
      daemons.push_back(std::make_unique<Daemon>(
          churnDaemon(coordinator.port(), static_cast<std::uint64_t>(d + 1))));
      daemons.back()->start();
    }
    AaloClient client(coordinator.port());
    const auto id = client.registerCoflow();
    for (auto& d : daemons) d->reportBytes(id, 32.0 * util::kMB);
    waitFor([&] { return coordinator.daemonCount() == 4; }, 10000ms);
    waitFor([&] { return coordinator.epoch() >= 3; }, 10000ms);

    // Stop with daemons still connected and reporting: their EOFs and the
    // tick in flight must all drain cleanly.
    coordinator.stop();
    for (auto& d : daemons) d->stop();
  }
}

// --- coalesced report ingress ---------------------------------------------

void pumpUntil(net::EventLoop& loop, auto done, std::chrono::milliseconds timeout = kWait) {
  waitFor([&] {
    loop.runOnce(std::chrono::milliseconds(1));
    return done();
  }, timeout);
}

void pumpUntilTime(net::EventLoop& loop, Clock::time_point until) {
  while (Clock::now() < until) loop.runOnce(std::chrono::milliseconds(1));
}

/// Δ of the timing tests below: its slot (Δ/8 = 250 ms) and the last
/// quarter slot before a tick (62.5 ms) are long enough to place frames
/// inside them on a loaded host.
CoordinatorConfig slowCoordinator() {
  CoordinatorConfig cfg;
  cfg.sync_interval = 2.0;
  return cfg;
}

/// Waits for a broadcast to `late`, then, inside the last quarter slot
/// before the next tick: `early` sends a keepalive (a pass reads it at
/// once) and 10 ms later `send_late` runs, so that frame's pass is due a
/// slot after early's, past the tick; only the tick's final pass can read
/// it in time. Returns the epoch of the broadcast before that tick, or 0
/// when the tick came before the late frame was sent.
std::uint64_t deferPastTheTick(Coordinator& coordinator, net::EventLoop& loop,
                               RawDaemon& early, RawDaemon& late,
                               const std::function<void()>& send_late) {
  const std::size_t seen = late.frames.size();
  pumpUntil(loop, [&] { return late.frames.size() > seen; }, 5000ms);
  const auto broadcast_at = Clock::now();
  const std::uint64_t epoch = late.frames.back().epoch;
  pumpUntilTime(loop, broadcast_at + 1969ms);  // The next tick: ~2000 ms.
  early.send(net::MessageType::kSizeReport);
  pumpUntilTime(loop, broadcast_at + 1979ms);
  send_late();  // Flushed to the socket before it returns.
  // The epoch grows after the final pass: still `epoch` here means the
  // frame was in the socket before the pass read it.
  return coordinator.epoch() == epoch ? epoch : 0;
}

/// The first frame `daemon` got with epoch `epoch`.
const net::Message& frameOfEpoch(net::EventLoop& loop, RawDaemon& daemon,
                                 std::uint64_t epoch) {
  const auto has = [&] {
    return std::find_if(daemon.frames.begin(), daemon.frames.end(),
                        [&](const net::Message& m) { return m.epoch == epoch; });
  };
  pumpUntil(loop, [&] { return has() != daemon.frames.end(); }, 5000ms);
  return *has();
}

// Reports from several daemons inside one slot are read in at most two
// passes: the first readiness is read at once, the rest at the slot's end.
TEST(RuntimeRobustness, IngressBurstInsideOneSlotCostsAtMostTwoPasses) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 4.0;  // Slot 500 ms; the first tick is 4 s away.
  Coordinator coordinator(ccfg);
  coordinator.start();
  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();

  net::EventLoop loop;
  constexpr int kDaemons = 6;
  constexpr int kReports = 5;
  std::vector<std::unique_ptr<RawDaemon>> daemons;
  for (int d = 0; d < kDaemons; ++d) {
    daemons.push_back(std::make_unique<RawDaemon>(loop, coordinator.port(), d + 1));
  }
  pumpUntil(loop, [&] { return coordinator.daemonCount() == kDaemons; });
  const auto passes_before = coordinator.stats().ingress_passes.load();

  // One write per report, 2 ms apart: each daemon turns readable again
  // after the first pass has read it.
  for (int r = 1; r <= kReports; ++r) {
    for (auto& daemon : daemons) {
      daemon->send(net::MessageType::kSizeReport, {{a, r * util::kMB}});
    }
    std::this_thread::sleep_for(2ms);
  }
  const double want = kDaemons * kReports * util::kMB;
  pumpUntil(loop, [&] {
    const auto global = coordinator.globalSizes();
    return global.contains(a) && global.at(a) == want;
  });
  const auto passes = coordinator.stats().ingress_passes.load() - passes_before;
  EXPECT_GE(passes, 1u);
  EXPECT_LE(passes, 2u);
  EXPECT_EQ(coordinator.epoch(), 0u);  // No tick ran inside the burst.
  coordinator.stop();
}

// A report deferred past the tick's slot is read by the tick's final pass:
// it is in the first broadcast after it arrived, not the one after.
TEST(RuntimeRobustness, ReportIsInTheFirstBroadcastAfterItArrived) {
  Coordinator coordinator(slowCoordinator());
  coordinator.start();
  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  net::EventLoop loop;
  RawDaemon early(loop, coordinator.port(), 1);
  RawDaemon late(loop, coordinator.port(), 2);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double bytes = (10 + attempt) * util::kMB;  // Queue 1.
    const std::uint64_t epoch = deferPastTheTick(coordinator, loop, early, late, [&] {
      late.send(net::MessageType::kSizeReport, {{a, bytes}});
    });
    if (epoch == 0) continue;  // The host was too slow this round.
    const net::Message& next = frameOfEpoch(loop, late, epoch + 1);
    const auto entry = std::find_if(next.schedule.begin(), next.schedule.end(),
                                    [&](const net::ScheduleEntry& e) { return e.id == a; });
    ASSERT_NE(entry, next.schedule.end()) << "epoch " << next.epoch;
    EXPECT_EQ(entry->global_bytes, bytes);
    EXPECT_EQ(entry->queue, 1);
    coordinator.stop();
    return;
  }
  FAIL() << "the late report never reached the socket before the tick";
}

// A kSnapshotRequest deferred past the tick's slot is answered by that
// tick's broadcast.
TEST(RuntimeRobustness, DeferredSnapshotRequestIsAnsweredAtTheNextTick) {
  Coordinator coordinator(slowCoordinator());
  coordinator.start();
  net::EventLoop loop;
  RawDaemon early(loop, coordinator.port(), 1);
  RawDaemon late(loop, coordinator.port(), 2);
  // Past the connect snapshot: from here on only a request earns one.
  pumpUntil(loop, [&] { return !late.frames.empty(); }, 5000ms);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const std::uint64_t epoch = deferPastTheTick(coordinator, loop, early, late, [&] {
      late.send(net::MessageType::kSnapshotRequest);
    });
    if (epoch == 0) continue;
    EXPECT_EQ(frameOfEpoch(loop, late, epoch).type, net::MessageType::kScheduleDelta);
    EXPECT_EQ(frameOfEpoch(loop, late, epoch + 1).type, net::MessageType::kScheduleUpdate);
    coordinator.stop();
    return;
  }
  FAIL() << "the late request never reached the socket before the tick";
}

// A daemon that disconnects while its reads are deferred is dropped by a
// pass within one Δ, not by the 10·Δ liveness eviction.
TEST(RuntimeRobustness, DeferredDaemonThatDisconnectsIsDroppedWithinOneDelta) {
  Coordinator coordinator(slowCoordinator());
  coordinator.start();
  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  net::EventLoop loop;
  RawDaemon stays(loop, coordinator.port(), 1);
  RawDaemon leaves(loop, coordinator.port(), 2);
  pumpUntil(loop, [&] { return coordinator.daemonCount() == 2; });
  stays.send(net::MessageType::kSizeReport, {{a, 1 * util::kMB}});
  leaves.send(net::MessageType::kSizeReport, {{a, 2 * util::kMB}});
  leaves.disconnect();
  const auto gone = Clock::now();
  pumpUntil(loop, [&] { return coordinator.daemonCount() == 1; }, 1500ms);
  EXPECT_LT(Clock::now() - gone, 1500ms);
  EXPECT_EQ(coordinator.stats().daemons_evicted.load(), 0u);
  // Its report was read before the EOF, and its share left with it.
  pumpUntil(loop, [&] { return coordinator.globalSizes().at(a) == 1 * util::kMB; });
  coordinator.stop();
}

// --- session fuzzer --------------------------------------------------------

/// A seeded session of well-formed frames over raw connections, checked
/// against a model of daemon-id ownership. Its ops: connect (with a Hello,
/// a redial when the id was used before, or without one), a first Hello
/// (a fresh id or one another connection holds), a repeated Hello (the
/// same id or a foreign one), size reports, snapshot requests and
/// disconnects. Liveness is off, so only the session decides who owns
/// what. Every op that changes the model changes something the
/// coordinator shows (sizes, daemon count or a counter), and the next op
/// starts only once the coordinator shows the model's state, so frames of
/// different connections reach it in op order.
class SessionFuzz {
 public:
  explicit SessionFuzz(std::uint64_t seed)
      : seed_(seed), rng_(seed), coordinator_([] {
          CoordinatorConfig cfg = fastCoordinator();
          cfg.liveness_timeout_intervals = 0;
          cfg.one_way_timeout_intervals = 0;
          return cfg;
        }()) {
    coordinator_.start();
    AaloClient client(coordinator_.port());
    for (int i = 0; i < 3; ++i) registered_.push_back(client.registerCoflow());
    coflows_ = registered_;
    coflows_.push_back({1000, 0});  // Reported, never registered: an orphan.
  }
  ~SessionFuzz() {
    conns_.clear();
    closing_.clear();
    coordinator_.stop();
  }

  /// Runs `ops` random ops; false (after a failure that names the seed
  /// and lists the ops) when the coordinator left the model.
  bool run(int ops) {
    for (int op = 0; op < ops; ++op) {
      log_ << op << ": ";
      step();
      log_ << "\n";
      if (!settle()) return false;
    }
    // Quiescent for good: a few more rounds change nothing.
    const std::uint64_t epoch = coordinator_.epoch();
    while (coordinator_.epoch() < epoch + 3) {
      loop_.runOnce(std::chrono::milliseconds(1));
    }
    const std::string why = mismatch();
    if (why.empty()) return true;
    ADD_FAILURE() << "seed " << seed_ << " after the last op: " << why
                  << "\nops:\n" << log_.str();
    return false;
  }

 private:
  /// A live raw connection and the daemon id it said Hello as.
  struct Conn {
    int name = 0;
    std::unique_ptr<RawDaemon> raw;
    std::optional<std::uint64_t> id;
  };
  static constexpr std::size_t kMaxConns = 6;
  static constexpr int kIds = 4;  // Ids 0..3: small, so ids collide.

  std::uint64_t anyId() { return static_cast<std::uint64_t>(rng_.uniformInt(0, kIds - 1)); }
  Conn& anyConn() {
    return *conns_[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(conns_.size()) - 1))];
  }

  void step() {
    enum Op { kConnect, kHello, kReport, kSnapshotRequest, kDisconnect };
    static constexpr double kWeights[] = {3, 2, 4, 1, 2};
    auto op = static_cast<Op>(rng_.weightedIndex(kWeights));
    if (conns_.empty()) op = kConnect;
    if (op == kConnect && conns_.size() == kMaxConns) op = kDisconnect;
    switch (op) {
      case kConnect: connect(); break;
      case kHello: hello(anyConn()); break;
      case kReport: report(anyConn()); break;
      case kSnapshotRequest: snapshotRequest(anyConn()); break;
      case kDisconnect: disconnect(anyConn()); break;
    }
  }

  void connect() {
    auto conn = std::make_unique<Conn>();
    conn->name = next_name_++;
    Conn& c = *conn;
    conns_.push_back(std::move(conn));
    if (rng_.chance(0.3)) {
      log_ << "c" << c.name << " connects without a Hello";
      c.raw = std::make_unique<RawDaemon>(loop_, coordinator_.port());
      return;
    }
    const std::uint64_t id = anyId();
    log_ << "c" << c.name << " connects as " << id;
    c.raw = std::make_unique<RawDaemon>(loop_, coordinator_.port(), id);
    claim(c, id);
  }

  void hello(Conn& c) {
    if (!c.id) {
      const std::uint64_t id = anyId();
      log_ << "c" << c.name << " says Hello as " << id;
      c.raw->hello(id);
      claim(c, id);
      return;
    }
    // A repeated Hello: the same id is ignored, a foreign one closes the
    // connection and drops its id's sizes.
    const std::uint64_t id = rng_.chance(0.5) ? *c.id : anyId();
    log_ << "c" << c.name << " (" << *c.id << ") says Hello again as " << id;
    c.raw->hello(id);
    ++repeated_hellos_;
    if (id != *c.id) {
      forget(*c.id);
      closedByCoordinator(c);
    }
  }

  /// `c` said Hello as `id`: it owns the id. When another connection
  /// held it, that one is closed first, and the id's sizes go with it.
  void claim(Conn& c, std::uint64_t id) {
    c.id = id;
    if (const auto owner = owners_.find(id); owner != owners_.end()) {
      log_ << " (handover from c" << owner->second->name << ")";
      ++handovers_;
      closedByCoordinator(*owner->second);
      forget(id);
    }
    owners_[id] = &c;
  }

  void report(Conn& c) {
    std::vector<coflow::CoflowId> ids = coflows_;
    rng_.shuffle(ids);
    ids.resize(static_cast<std::size_t>(rng_.uniformInt(1, 3)));
    std::vector<net::CoflowSize> sizes;
    std::unordered_map<coflow::CoflowId, double>* held =
        c.id ? &sizes_[*c.id] : nullptr;
    for (const auto& id : ids) {
      // Whole KBs: every sum the coordinator forms is exact. The first
      // entry grows, so an applied report always shows.
      double bytes = static_cast<double>(rng_.uniformInt(0, 64)) * util::kKB;
      if (sizes.empty()) {
        const double before = held && held->contains(id) ? held->at(id) : 0.0;
        bytes = before + static_cast<double>(rng_.uniformInt(1, 16)) * util::kKB;
      }
      sizes.push_back({id, bytes});
      if (held) (*held)[id] = bytes;
    }
    log_ << "c" << c.name << " reports";
    for (const auto& s : sizes) log_ << " " << s.id.toString() << "=" << s.bytes;
    if (!c.id) ++unowned_frames_;
    c.raw->send(net::MessageType::kSizeReport, std::move(sizes));
  }

  void snapshotRequest(Conn& c) {
    log_ << "c" << c.name << " asks for a snapshot";
    c.raw->send(net::MessageType::kSnapshotRequest);
    ++(c.id ? snapshot_requests_ : unowned_frames_);
  }

  void disconnect(Conn& c) {
    log_ << "c" << c.name << " disconnects";
    if (c.id) forget(*c.id);
    std::erase_if(conns_, [&](const auto& conn) { return conn.get() == &c; });
  }

  /// The owner of `id` closed: the id and its sizes go.
  void forget(std::uint64_t id) {
    owners_.erase(id);
    sizes_.erase(id);
  }

  /// The coordinator closes `c`. Its socket stays open until the op has
  /// settled: closed at once, with broadcasts unread, it would reset the
  /// connection, and the coordinator could see the reset before the
  /// frame that makes it close.
  void closedByCoordinator(Conn& c) {
    const auto it = std::find_if(conns_.begin(), conns_.end(),
                                 [&](const auto& conn) { return conn.get() == &c; });
    closing_.push_back(std::move(*it));
    conns_.erase(it);
  }

  std::unordered_map<coflow::CoflowId, double> expectedSizes() const {
    std::unordered_map<coflow::CoflowId, double> out;
    for (const auto& id : registered_) out[id] = 0;
    for (const auto& [daemon, held] : sizes_) {
      for (const auto& [id, bytes] : held) out[id] += bytes;
    }
    return out;
  }

  /// How the coordinator differs from the model; empty when it does not.
  std::string mismatch() {
    std::ostringstream why;
    const auto dump = [&](const std::unordered_map<coflow::CoflowId, double>& m) {
      std::ostringstream out;
      for (const auto& id : coflows_) {
        out << " " << id.toString() << "=";
        if (m.contains(id)) {
          out << m.at(id);
        } else {
          out << "-";
        }
      }
      return out.str();
    };
    const auto global = coordinator_.globalSizes();
    const auto expected = expectedSizes();
    if (global != expected) {
      why << "sizes" << dump(global) << ", model" << dump(expected) << "; ";
    }
    const auto expect = [&](const char* name, std::uint64_t got, std::uint64_t want) {
      if (got != want) why << name << " " << got << ", model " << want << "; ";
    };
    const RobustnessStats& stats = coordinator_.stats();
    expect("daemons", coordinator_.daemonCount(), owners_.size());
    expect("repeated_hellos", stats.repeated_hellos.load(), repeated_hellos_);
    expect("daemon_handovers", stats.daemon_handovers.load(), handovers_);
    expect("unowned_frames", stats.unowned_frames.load(), unowned_frames_);
    expect("snapshot_requests", stats.snapshot_requests.load(), snapshot_requests_);
    expect("malformed_frames", stats.malformed_frames.load(), 0);
    expect("daemons_evicted", stats.daemons_evicted.load(), 0);
    return why.str();
  }

  /// Pumps until the coordinator shows the model's state.
  bool settle() {
    const auto deadline = Clock::now() + 10 * kWait;
    for (std::string why = mismatch(); !why.empty(); why = mismatch()) {
      if (Clock::now() > deadline) {
        ADD_FAILURE() << "seed " << seed_ << ": " << why << "\nops:\n"
                      << log_.str();
        return false;
      }
      loop_.runOnce(std::chrono::milliseconds(1));
    }
    for (auto& c : conns_) c->raw->frames.clear();  // Broadcasts: unchecked.
    closing_.clear();
    return true;
  }

  std::uint64_t seed_;
  util::Rng rng_;
  Coordinator coordinator_;
  net::EventLoop loop_;
  std::vector<coflow::CoflowId> registered_;
  std::vector<coflow::CoflowId> coflows_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> closing_;
  int next_name_ = 0;
  // The model.
  std::unordered_map<std::uint64_t, Conn*> owners_;
  std::unordered_map<std::uint64_t, std::unordered_map<coflow::CoflowId, double>>
      sizes_;  ///< Per owned id: its last absolute report of each coflow.
  std::uint64_t repeated_hellos_ = 0;
  std::uint64_t handovers_ = 0;
  std::uint64_t unowned_frames_ = 0;
  std::uint64_t snapshot_requests_ = 0;
  std::ostringstream log_;
};

class RuntimeSessionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeSessionFuzz, CoordinatorFollowsTheOwnerModel) {
  SessionFuzz session(GetParam());
  EXPECT_TRUE(session.run(200));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeSessionFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace aalo::runtime
