// Real-socket demo of the Aalo runtime (§6): a coordinator, a daemon, and
// two concurrent "shuffles" on one machine uplink.
//
// The big shuffle (8 MB) starts first; a small one (512 KB) joins shortly
// after. Both report sizes through the daemon; within a few coordination
// rounds the big coflow crosses the first queue threshold, is demoted,
// and the small coflow takes most of the uplink — so it finishes far
// sooner than its fair-sharing finish time, exactly the Figure-2
// architecture working end to end over loopback TCP.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "runtime/client.h"
#include "runtime/coordinator.h"
#include "runtime/daemon.h"
#include "util/units.h"

using namespace aalo;
using Clock = std::chrono::steady_clock;

namespace {

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  // Control plane: coordinator with a 1 MB first queue threshold and a
  // 10 ms coordination interval.
  runtime::CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.010;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  ccfg.dclas.num_queues = 4;
  runtime::Coordinator coordinator(ccfg);
  coordinator.start();

  runtime::DaemonConfig dcfg;
  dcfg.coordinator_port = coordinator.port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = 0.010;
  dcfg.num_queues = 4;
  dcfg.dclas = ccfg.dclas;  // Degraded-mode local queues match the global ones.
  dcfg.uplink_capacity = 8 * util::kMB;  // Modest, so the demo runs ~1-2 s.
  runtime::Daemon daemon(dcfg);
  daemon.start();

  // Data plane: each shuffle writes into a drained socketpair, throttled
  // by the daemon's D-CLAS shares.
  auto makeDrainedPair = [](std::thread& drainer, int out[2]) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, out) != 0) {
      std::perror("socketpair");
      std::exit(1);
    }
    const int rd = out[1];
    drainer = std::thread([rd] {
      char sink[65536];
      while (::read(rd, sink, sizeof(sink)) > 0) {
      }
    });
  };

  int big_pair[2];
  int small_pair[2];
  std::thread big_drain;
  std::thread small_drain;
  makeDrainedPair(big_drain, big_pair);
  makeDrainedPair(small_drain, small_pair);

  runtime::AaloClient client(coordinator.port());
  const auto big_id = client.registerCoflow();    // val bId = register()
  const auto small_id = client.registerCoflow();  // val sId = register()
  std::printf("registered coflows: big=%s small=%s\n",
              big_id.toString().c_str(), small_id.toString().c_str());

  const auto start = Clock::now();
  double big_done = 0;
  double small_done = 0;

  std::thread big_sender([&] {
    std::vector<std::uint8_t> chunk(size_t(8 * util::kMB), 0xB1);
    runtime::ThrottledWriter writer(big_pair[0], big_id, daemon);
    writer.writeAll(chunk.data(), chunk.size());
    big_done = secondsSince(start);
  });
  std::thread small_sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    std::vector<std::uint8_t> chunk(size_t(512 * util::kKB), 0x5E);
    runtime::ThrottledWriter writer(small_pair[0], small_id, daemon);
    writer.writeAll(chunk.data(), chunk.size());
    small_done = secondsSince(start);
  });

  big_sender.join();
  small_sender.join();
  client.unregisterCoflow(big_id);
  client.unregisterCoflow(small_id);

  std::printf("\nbig shuffle   (8 MB, started 0.00s): finished at %.2fs in queue %d\n",
              big_done, daemon.queueOf(big_id));
  std::printf("small shuffle (512 KB, started 0.25s): finished at %.2fs in queue %d\n",
              small_done, daemon.queueOf(small_id));
  std::printf("\ncoordination rounds completed: %llu (every ~10 ms)\n",
              static_cast<unsigned long long>(coordinator.epoch()));
  if (small_done < big_done) {
    std::printf("=> Aalo demoted the big coflow and let the small one through.\n");
  }

  for (int* pair : {big_pair, small_pair}) {
    ::shutdown(pair[0], SHUT_RDWR);
    ::close(pair[0]);
  }
  big_drain.join();
  small_drain.join();
  ::close(big_pair[1]);
  ::close(small_pair[1]);
  daemon.stop();
  coordinator.stop();
  return 0;
}
