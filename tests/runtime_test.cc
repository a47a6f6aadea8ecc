#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "runtime/client.h"
#include "runtime/coordinator.h"
#include "runtime/daemon.h"
#include "tests/helpers.h"
#include "util/units.h"

namespace aalo::runtime {
namespace {

using namespace std::chrono_literals;

using testing::waitFor;

/// How long a wait in this suite may take.
constexpr auto kWait = 3000ms;

CoordinatorConfig fastCoordinator() {
  CoordinatorConfig cfg;
  cfg.sync_interval = 0.005;
  return cfg;
}

TEST(Runtime, CoordinatorStartsAndTicksWithoutDaemons) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();
  EXPECT_GT(coordinator.port(), 0);
  waitFor([&] { return coordinator.epoch() >= 3; }, kWait);
  coordinator.stop();
}

TEST(Runtime, DaemonConnectsAndReceivesSchedules) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  Daemon daemon(dcfg);
  daemon.start();

  waitFor([&] { return coordinator.daemonCount() == 1; }, kWait);
  waitFor([&] { return daemon.lastEpoch() >= 3; }, kWait);
  EXPECT_TRUE(daemon.connected());

  daemon.stop();
  waitFor([&] { return coordinator.daemonCount() == 0; }, kWait);
  coordinator.stop();
}

TEST(Runtime, RegisterAssignsSequentialAndDagIds) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();

  AaloClient client(coordinator.port());
  const auto a = client.registerCoflow();
  const auto b = client.registerCoflow();
  EXPECT_EQ(a.internal, 0);
  EXPECT_EQ(b.internal, 0);
  EXPECT_EQ(b.external, a.external + 1);

  // register({bId}): dependent coflow in the same DAG (§6.1).
  const coflow::CoflowId parents[] = {b};
  const auto child = client.registerCoflow(parents);
  EXPECT_EQ(child.external, b.external);
  EXPECT_EQ(child.internal, 1);

  waitFor([&] { return coordinator.registeredCoflows() == 3; }, kWait);
  client.unregisterCoflow(a);
  waitFor([&] { return coordinator.registeredCoflows() == 2; }, kWait);
  coordinator.stop();
}

TEST(Runtime, SizeReportsDriveQueueAssignment) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.dclas.num_queues = 3;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  ccfg.dclas.exp_factor = 10;
  Coordinator coordinator(ccfg);
  coordinator.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 7;
  dcfg.sync_interval = 0.005;
  dcfg.num_queues = 3;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto small = client.registerCoflow();
  const auto big = client.registerCoflow();

  daemon.reportBytes(small, 100.0 * util::kKB);  // Below Q1^hi.
  daemon.reportBytes(big, 5.0 * util::kMB);      // Crosses into Q2.
  waitFor([&] {
    return daemon.queueOf(big) == 1 && daemon.queueOf(small) == 0;
  }, kWait);

  // More traffic pushes the big coflow into the lowest queue.
  daemon.reportBytes(big, 20.0 * util::kMB);
  waitFor([&] { return daemon.queueOf(big) == 2; }, kWait);

  daemon.stop();
  coordinator.stop();
}

TEST(Runtime, AggregatesSizesAcrossDaemons) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.dclas.num_queues = 2;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  Coordinator coordinator(ccfg);
  coordinator.start();

  DaemonConfig base;
  base.coordinator_port = coordinator.port();
  base.sync_interval = 0.005;
  base.num_queues = 2;
  DaemonConfig d1 = base;
  d1.daemon_id = 1;
  DaemonConfig d2 = base;
  d2.daemon_id = 2;
  Daemon daemon1(d1);
  Daemon daemon2(d2);
  daemon1.start();
  daemon2.start();

  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();
  // Each daemon sees only 0.6 MB — locally below the 1 MB threshold, but
  // the coordinator's aggregate (1.2 MB) demotes the coflow everywhere.
  daemon1.reportBytes(id, 0.6 * util::kMB);
  daemon2.reportBytes(id, 0.6 * util::kMB);
  waitFor([&] { return daemon1.queueOf(id) == 1 && daemon2.queueOf(id) == 1; }, kWait);

  daemon1.stop();
  daemon2.stop();
  coordinator.stop();
}

TEST(Runtime, RateForFollowsQueuePolicy) {
  CoordinatorConfig ccfg = fastCoordinator();
  ccfg.dclas.num_queues = 2;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  Coordinator coordinator(ccfg);
  coordinator.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  dcfg.num_queues = 2;
  dcfg.uplink_capacity = 300.0;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto hot = client.registerCoflow();
  const auto cold = client.registerCoflow();

  daemon.writerActive(hot, true);
  EXPECT_DOUBLE_EQ(daemon.rateFor(hot), 300.0);  // Alone: full uplink.
  EXPECT_DOUBLE_EQ(daemon.rateFor(cold), 0.0);   // No active writer.

  daemon.writerActive(cold, true);
  daemon.reportBytes(cold, 5.0 * util::kMB);  // Demote cold to Q2.
  waitFor([&] { return daemon.queueOf(cold) == 1; }, kWait);
  // Queues 0 and 1 with weights 2 and 1: hot gets 200, cold gets 100.
  EXPECT_DOUBLE_EQ(daemon.rateFor(hot), 200.0);
  EXPECT_DOUBLE_EQ(daemon.rateFor(cold), 100.0);

  daemon.writerActive(hot, false);
  daemon.writerActive(cold, false);
  daemon.stop();
  coordinator.stop();
}

TEST(Runtime, DaemonFallsBackWhenCoordinatorDies) {
  auto coordinator = std::make_unique<Coordinator>(fastCoordinator());
  coordinator->start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator->port();
  dcfg.daemon_id = 9;
  dcfg.sync_interval = 0.005;
  Daemon daemon(dcfg);
  daemon.start();
  waitFor([&] { return daemon.connected() && daemon.lastEpoch() >= 1; }, kWait);

  coordinator->stop();
  coordinator.reset();
  waitFor([&] { return !daemon.connected(); }, kWait);
  // Fault tolerance: the data path degrades to unthrottled TCP.
  const coflow::CoflowId id{0, 0};
  daemon.writerActive(id, true);
  EXPECT_TRUE(std::isinf(daemon.rateFor(id)));
  daemon.writerActive(id, false);
  daemon.stop();
}

TEST(Runtime, ThrottledWriterPacesToDaemonRate) {
  Coordinator coordinator(fastCoordinator());
  coordinator.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.005;
  dcfg.uplink_capacity = 2e6;  // 2 MB/s.
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread drain([&] {
    char sink[65536];
    while (::read(fds[1], sink, sizeof(sink)) > 0) {
    }
  });

  std::vector<std::uint8_t> payload(512 * 1024, 0x7F);  // 0.5 MB.
  const auto start = std::chrono::steady_clock::now();
  {
    ThrottledWriter writer(fds[0], id, daemon);
    writer.writeAll(payload.data(), payload.size());
    EXPECT_DOUBLE_EQ(writer.bytesWritten(), double(payload.size()));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // 0.5 MB at 2 MB/s should take ~0.25 s; allow generous slack but fail
  // if the writer clearly did not throttle (e.g. < 0.15 s).
  EXPECT_GT(elapsed, 0.15);
  EXPECT_LT(elapsed, 2.0);

  ::shutdown(fds[0], SHUT_RDWR);
  ::close(fds[0]);
  drain.join();
  ::close(fds[1]);
  daemon.stop();
  coordinator.stop();
}

}  // namespace
}  // namespace aalo::runtime
