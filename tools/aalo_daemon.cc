// aalo_daemon — run a standalone Aalo daemon (one per machine) against a
// coordinator, optionally generating synthetic local traffic so the
// control plane can be exercised without a data plane.
//
//   aalo_daemon --coordinator-port P [--coordinator-port P2 ...] [--id N]
//               [--delta MS]
//               [--synthetic-coflows N] [--rate BYTES_PER_SEC]
//               [--duration SEC]
//               [--reconnect MS] [--reconnect-max-backoff MS]
//               [--stale-intervals N]
//               [--resync-intervals N] [--full-reports]
//               [--send-queue-max BYTES]
//               [--metrics-dump PATH] [--metrics-interval SECONDS]
//               [--chaos-seed S] [--chaos-drop P] [--chaos-dup P]
//               [--chaos-reorder P] [--chaos-corrupt P] [--chaos-truncate P]
//               [--chaos-delay P] [--chaos-split BYTES]
//
// --coordinator-port may repeat: the first port is the primary, later ones
// are warm standbys tried in order when the current endpoint fails or goes
// stale. --send-queue-max sheds size reports while more than BYTES of
// unsent data is already queued to the coordinator (0 = never shed).
//
// --metrics-dump writes the daemon's observability registry (Prometheus
// text, plus JSON at PATH.json) every --metrics-interval seconds (default
// 1) and once at shutdown.
//
// Any --chaos-* flag interposes a net::ChaosProxy between this daemon and
// the coordinator: the daemon dials the proxy, the proxy relays (and
// deterministically mangles, per --chaos-seed) frames to the real
// coordinator port. Probabilities are per frame and apply in both
// directions.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "net/chaos.h"
#include "runtime/client.h"
#include "runtime/daemon.h"
#include "util/units.h"

using namespace aalo;

namespace {

std::atomic<bool> g_stop{false};

void onSignal(int) { g_stop = true; }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: aalo_daemon --coordinator-port P [--coordinator-port P2]\n"
               "                   [--id N] [--delta MS]\n"
               "                   [--synthetic-coflows N] [--rate B/S]\n"
               "                   [--duration SEC]\n"
               "                   [--reconnect MS] [--reconnect-max-backoff MS]\n"
               "                   [--stale-intervals N]\n"
               "                   [--resync-intervals N] [--full-reports]\n"
               "                   [--send-queue-max BYTES]\n"
               "                   [--metrics-dump PATH] [--metrics-interval SECONDS]\n"
               "                   [--chaos-seed S] [--chaos-drop P] [--chaos-dup P]\n"
               "                   [--chaos-reorder P] [--chaos-corrupt P]\n"
               "                   [--chaos-truncate P] [--chaos-delay P]\n"
               "                   [--chaos-split BYTES]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  runtime::DaemonConfig cfg;
  cfg.daemon_id = 1;
  int synthetic = 0;
  double rate = 10 * util::kMB;
  double duration = 0;  // 0 = run until signalled.
  bool use_chaos = false;
  net::ChaosPolicy chaos;
  std::uint64_t chaos_seed = 1;
  std::string metrics_dump_path;
  double metrics_interval = 1.0;

  for (int i = 1; i < argc; ++i) {
    auto needValue = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--coordinator-port")) {
      const auto port =
          static_cast<std::uint16_t>(std::atoi(needValue("--coordinator-port")));
      if (cfg.coordinator_port == 0) cfg.coordinator_port = port;
      cfg.coordinator_ports.push_back(port);
    } else if (!std::strcmp(argv[i], "--id")) {
      cfg.daemon_id = std::strtoull(needValue("--id"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--delta")) {
      cfg.sync_interval = std::atof(needValue("--delta")) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--synthetic-coflows")) {
      synthetic = std::atoi(needValue("--synthetic-coflows"));
    } else if (!std::strcmp(argv[i], "--rate")) {
      rate = std::atof(needValue("--rate"));
    } else if (!std::strcmp(argv[i], "--duration")) {
      duration = std::atof(needValue("--duration"));
    } else if (!std::strcmp(argv[i], "--reconnect")) {
      cfg.reconnect_interval =
          std::atof(needValue("--reconnect")) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--reconnect-max-backoff")) {
      cfg.reconnect_max_backoff =
          std::atof(needValue("--reconnect-max-backoff")) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--stale-intervals")) {
      cfg.stale_after_intervals = std::atoi(needValue("--stale-intervals"));
    } else if (!std::strcmp(argv[i], "--resync-intervals")) {
      cfg.resync_intervals = std::atoi(needValue("--resync-intervals"));
    } else if (!std::strcmp(argv[i], "--full-reports")) {
      cfg.full_reports = true;
    } else if (!std::strcmp(argv[i], "--send-queue-max")) {
      cfg.send_queue_max =
          static_cast<std::size_t>(std::atoll(needValue("--send-queue-max")));
    } else if (!std::strcmp(argv[i], "--metrics-dump")) {
      metrics_dump_path = needValue("--metrics-dump");
    } else if (!std::strcmp(argv[i], "--metrics-interval")) {
      metrics_interval = std::atof(needValue("--metrics-interval"));
    } else if (!std::strcmp(argv[i], "--chaos-seed")) {
      chaos_seed = std::strtoull(needValue("--chaos-seed"), nullptr, 10);
      use_chaos = true;
    } else if (!std::strcmp(argv[i], "--chaos-drop")) {
      chaos.drop = std::atof(needValue("--chaos-drop"));
      use_chaos = true;
    } else if (!std::strcmp(argv[i], "--chaos-dup")) {
      chaos.duplicate = std::atof(needValue("--chaos-dup"));
      use_chaos = true;
    } else if (!std::strcmp(argv[i], "--chaos-reorder")) {
      chaos.reorder = std::atof(needValue("--chaos-reorder"));
      use_chaos = true;
    } else if (!std::strcmp(argv[i], "--chaos-corrupt")) {
      chaos.corrupt = std::atof(needValue("--chaos-corrupt"));
      use_chaos = true;
    } else if (!std::strcmp(argv[i], "--chaos-truncate")) {
      chaos.truncate = std::atof(needValue("--chaos-truncate"));
      use_chaos = true;
    } else if (!std::strcmp(argv[i], "--chaos-delay")) {
      chaos.delay = std::atof(needValue("--chaos-delay"));
      use_chaos = true;
    } else if (!std::strcmp(argv[i], "--chaos-split")) {
      chaos.max_write_bytes =
          static_cast<std::size_t>(std::atoll(needValue("--chaos-split")));
      use_chaos = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage();
    }
  }
  if (cfg.coordinator_port == 0) usage();

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // With chaos flags the daemon dials the proxy instead of the
  // coordinator; the proxy relays (and mangles) to the real port.
  const std::uint16_t real_coordinator_port = cfg.coordinator_port;
  std::unique_ptr<net::ChaosProxy> proxy;
  if (use_chaos) {
    net::ChaosProxyConfig pcfg;
    pcfg.upstream_port = real_coordinator_port;
    pcfg.seed = chaos_seed;
    pcfg.client_to_upstream = chaos;
    pcfg.upstream_to_client = chaos;
    proxy = std::make_unique<net::ChaosProxy>(pcfg);
    proxy->start();
    cfg.coordinator_port = proxy->port();
    cfg.coordinator_ports = {proxy->port()};  // chaos fronts one endpoint
    std::printf("chaos proxy on 127.0.0.1:%u -> 127.0.0.1:%u (seed=%llu)\n",
                proxy->port(), real_coordinator_port,
                static_cast<unsigned long long>(chaos_seed));
  }

  // A rejected configuration is reported, not aborted on.
  std::unique_ptr<runtime::Daemon> owned;
  try {
    owned = std::make_unique<runtime::Daemon>(cfg);
    owned->start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aalo_daemon: %s\n", e.what());
    if (proxy) proxy->stop();
    return 1;
  }
  runtime::Daemon& daemon = *owned;
  std::printf("aalo_daemon %llu connected to 127.0.0.1:%u\n",
              static_cast<unsigned long long>(cfg.daemon_id), cfg.coordinator_port);

  // Optional synthetic load: register N coflows and report bytes at the
  // given per-coflow rate so queue transitions can be observed live.
  // Client RPCs go straight to the coordinator — chaos targets the
  // daemon's control channel.
  std::vector<coflow::CoflowId> ids;
  if (synthetic > 0) {
    runtime::AaloClient client(real_coordinator_port);
    for (int c = 0; c < synthetic; ++c) ids.push_back(client.registerCoflow());
    std::printf("registered %d synthetic coflows\n", synthetic);
  }

  const auto start = std::chrono::steady_clock::now();
  double next_dump = metrics_interval;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (std::size_t c = 0; c < ids.size(); ++c) {
      // Coflow c sends at rate * (c+1) to spread across queues.
      daemon.reportBytes(ids[c], rate * 0.1 * static_cast<double>(c + 1));
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!metrics_dump_path.empty() && metrics_interval > 0 &&
        elapsed >= next_dump) {
      daemon.metrics().dumpFiles(metrics_dump_path);
      next_dump = elapsed + metrics_interval;
    }
    if (duration > 0 && elapsed >= duration) break;
    if (!ids.empty() && std::fmod(elapsed, 1.0) < 0.1) {
      std::printf("t=%.0fs epoch=%llu queues:", elapsed,
                  static_cast<unsigned long long>(daemon.lastEpoch()));
      for (const auto& id : ids) std::printf(" %d", daemon.queueOf(id));
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  daemon.stop();
  if (!metrics_dump_path.empty()) daemon.metrics().dumpFiles(metrics_dump_path);
  const auto& dstats = daemon.stats();
  std::printf("reconnects=%llu stale_transitions=%llu old_epoch_ignored=%llu\n",
              static_cast<unsigned long long>(dstats.reconnect_attempts.load()),
              static_cast<unsigned long long>(dstats.stale_transitions.load()),
              static_cast<unsigned long long>(dstats.old_epoch_ignored.load()));
  if (proxy) {
    const auto& pstats = proxy->stats();
    std::printf(
        "chaos: relayed=%llu dropped=%llu dup=%llu reordered=%llu "
        "truncated=%llu corrupted=%llu delayed=%llu\n",
        static_cast<unsigned long long>(pstats.frames_relayed.load()),
        static_cast<unsigned long long>(pstats.frames_dropped.load()),
        static_cast<unsigned long long>(pstats.frames_duplicated.load()),
        static_cast<unsigned long long>(pstats.frames_reordered.load()),
        static_cast<unsigned long long>(pstats.frames_truncated.load()),
        static_cast<unsigned long long>(pstats.frames_corrupted.load()),
        static_cast<unsigned long long>(pstats.frames_delayed.load()));
    proxy->stop();
  }
  std::printf("shut down cleanly\n");
  return 0;
}
