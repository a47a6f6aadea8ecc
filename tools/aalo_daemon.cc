// aalo_daemon — run a standalone Aalo daemon (one per machine) against a
// coordinator, optionally generating synthetic local traffic so the
// control plane can be exercised without a data plane.
//
//   aalo_daemon --coordinator-port P [--coordinator-port P2 ...] [--id N]
//               [--delta MS]
//               [--synthetic-coflows N] [--rate BYTES_PER_SEC]
//               [--duration SEC]
//               [--reconnect MS] [--reconnect-max-backoff MS]
//               [--stale-intervals N] [--resync-intervals N]
//               [--send-queue-max BYTES]
//               [--metrics-dump PATH] [--metrics-interval SECONDS]
//
// --coordinator-port may repeat: the first port is the primary, later ones
// are warm standbys tried in order when the current endpoint fails or goes
// stale. --send-queue-max sheds size reports while more than BYTES of
// unsent data is already queued to the coordinator (0 = never shed).
//
// --metrics-dump writes the daemon's observability registry (Prometheus
// text, plus JSON at PATH.json) every --metrics-interval seconds (default
// 1) and once at shutdown.
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

#include "cli_number.h"
#include "metrics_dump.h"
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
               "                   [--stale-intervals N] [--resync-intervals N]\n"
               "                   [--send-queue-max BYTES]\n"
               "                   [--metrics-dump PATH] [--metrics-interval SECONDS]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  runtime::DaemonConfig cfg;
  cfg.daemon_id = 1;
  int synthetic = 0;
  double rate = 10 * util::kMB;
  double duration = 0;  // 0 = run until signalled.
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
    auto number = [&](const char* flag, auto... range) {
      return tools::parseNumber(flag, needValue(flag), range..., usage);
    };
    if (!std::strcmp(argv[i], "--coordinator-port")) {
      const auto port = number("--coordinator-port", std::uint16_t{1});
      if (cfg.coordinator_port == 0) cfg.coordinator_port = port;
      cfg.coordinator_ports.push_back(port);
    } else if (!std::strcmp(argv[i], "--id")) {
      cfg.daemon_id = number("--id", std::uint64_t{0});
    } else if (!std::strcmp(argv[i], "--delta")) {
      cfg.sync_interval = number("--delta", tools::kPositive) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--synthetic-coflows")) {
      synthetic = number("--synthetic-coflows", 0);
    } else if (!std::strcmp(argv[i], "--rate")) {
      rate = number("--rate", 0.0);
    } else if (!std::strcmp(argv[i], "--duration")) {
      duration = number("--duration", 0.0);
    } else if (!std::strcmp(argv[i], "--reconnect")) {
      cfg.reconnect_interval = number("--reconnect", 0.0) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--reconnect-max-backoff")) {
      cfg.reconnect_max_backoff =
          number("--reconnect-max-backoff", 0.0) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--stale-intervals")) {
      cfg.stale_after_intervals = number("--stale-intervals", 0);
    } else if (!std::strcmp(argv[i], "--resync-intervals")) {
      cfg.resync_intervals = number("--resync-intervals", 0);
    } else if (!std::strcmp(argv[i], "--send-queue-max")) {
      cfg.send_queue_max = number("--send-queue-max", std::size_t{0});
    } else if (!std::strcmp(argv[i], "--metrics-dump")) {
      metrics_dump_path = needValue("--metrics-dump");
    } else if (!std::strcmp(argv[i], "--metrics-interval")) {
      metrics_interval = number("--metrics-interval", 0.0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage();
    }
  }
  if (cfg.coordinator_port == 0) usage();

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // A rejected configuration is reported, not aborted on.
  std::unique_ptr<runtime::Daemon> owned;
  try {
    owned = std::make_unique<runtime::Daemon>(cfg);
    owned->start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aalo_daemon: %s\n", e.what());
    return 1;
  }
  runtime::Daemon& daemon = *owned;
  std::printf("aalo_daemon %llu connected to 127.0.0.1:%u\n",
              static_cast<unsigned long long>(cfg.daemon_id), cfg.coordinator_port);

  // Optional synthetic load: register N coflows and report bytes at the
  // given per-coflow rate so queue transitions can be observed live.
  std::vector<coflow::CoflowId> ids;
  if (synthetic > 0) {
    runtime::AaloClient client(cfg.coordinator_port);
    for (int c = 0; c < synthetic; ++c) ids.push_back(client.registerCoflow());
    std::printf("registered %d synthetic coflows\n", synthetic);
  }

  tools::MetricsDump dump(metrics_dump_path, metrics_interval);
  const auto start = std::chrono::steady_clock::now();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (std::size_t c = 0; c < ids.size(); ++c) {
      // Coflow c sends at rate * (c+1) to spread across queues.
      daemon.reportBytes(ids[c], rate * 0.1 * static_cast<double>(c + 1));
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    dump.tick(daemon.metrics());
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
  dump.write(daemon.metrics());
  const auto& dstats = daemon.stats();
  std::printf("reconnects=%llu stale_transitions=%llu old_epoch_ignored=%llu\n",
              static_cast<unsigned long long>(dstats.reconnect_attempts.load()),
              static_cast<unsigned long long>(dstats.stale_transitions.load()),
              static_cast<unsigned long long>(dstats.old_epoch_ignored.load()));
  std::printf("shut down cleanly\n");
  return 0;
}
