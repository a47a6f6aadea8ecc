// aalo_coordinator — run a standalone Aalo coordinator process.
//
//   aalo_coordinator [--port P] [--delta MS] [--queues K] [--q1 BYTES]
//                    [--factor E] [--max-on N] [--liveness-timeout N]
//                    [--one-way-timeout N] [--tombstone-gc N]
//                    [--snapshot-every N] [--full-broadcasts]
//                    [--standby-of PORT] [--takeover-intervals N]
//                    [--checkpoint-dir DIR] [--checkpoint-interval SECONDS]
//                    [--send-queue-max BYTES]
//                    [--metrics-dump PATH] [--metrics-interval SECONDS]
//                    [--verbose]
//
// The three timeout flags are in units of sync intervals (N * delta); 0
// disables the corresponding watchdog. --snapshot-every bounds how many
// consecutive delta frames a daemon sees before a full schedule refresh;
// --full-broadcasts disables the delta path entirely (oracle mode).
// --standby-of starts this process as a warm standby of the primary at
// the given port: it mirrors the broadcast stream and promotes itself
// (with a higher fencing epoch) after --takeover-intervals * delta of
// primary silence. --checkpoint-dir enables ScheduleState snapshots + a
// delta journal so a restarted primary resumes without re-teaching;
// --send-queue-max bounds per-daemon broadcast backlog (skipped rounds are
// coalesced into one snapshot; 0 = unlimited).
// --metrics-dump writes the observability registry (Prometheus text, plus
// JSON at PATH.json) every --metrics-interval seconds and once at
// shutdown.
//
// Prints one status line per second (daemons, registered coflows, epoch).
// Terminate with SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>

#include "runtime/coordinator.h"
#include "util/log.h"
#include "util/units.h"

using namespace aalo;

namespace {

std::atomic<bool> g_stop{false};

void onSignal(int) { g_stop = true; }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: aalo_coordinator [--port P] [--delta MS] [--queues K]\n"
               "                        [--q1 BYTES] [--factor E] [--max-on N]\n"
               "                        [--liveness-timeout N] [--one-way-timeout N]\n"
               "                        [--tombstone-gc N] [--snapshot-every N]\n"
               "                        [--full-broadcasts] [--standby-of PORT]\n"
               "                        [--takeover-intervals N] [--checkpoint-dir DIR]\n"
               "                        [--checkpoint-interval SECONDS]\n"
               "                        [--send-queue-max BYTES]\n"
               "                        [--metrics-dump PATH]\n"
               "                        [--metrics-interval SECONDS] [--verbose]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  runtime::CoordinatorConfig cfg;
  for (int i = 1; i < argc; ++i) {
    auto needValue = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--port")) {
      cfg.port = static_cast<std::uint16_t>(std::atoi(needValue("--port")));
    } else if (!std::strcmp(argv[i], "--delta")) {
      cfg.sync_interval = std::atof(needValue("--delta")) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--queues")) {
      cfg.dclas.num_queues = std::atoi(needValue("--queues"));
    } else if (!std::strcmp(argv[i], "--q1")) {
      cfg.dclas.first_threshold = std::atof(needValue("--q1"));
    } else if (!std::strcmp(argv[i], "--factor")) {
      cfg.dclas.exp_factor = std::atof(needValue("--factor"));
    } else if (!std::strcmp(argv[i], "--max-on")) {
      cfg.max_on_coflows =
          static_cast<std::size_t>(std::atoll(needValue("--max-on")));
    } else if (!std::strcmp(argv[i], "--liveness-timeout")) {
      cfg.liveness_timeout_intervals = std::atoi(needValue("--liveness-timeout"));
    } else if (!std::strcmp(argv[i], "--one-way-timeout")) {
      cfg.one_way_timeout_intervals = std::atoi(needValue("--one-way-timeout"));
    } else if (!std::strcmp(argv[i], "--tombstone-gc")) {
      cfg.tombstone_gc_intervals = std::atoi(needValue("--tombstone-gc"));
    } else if (!std::strcmp(argv[i], "--snapshot-every")) {
      cfg.snapshot_every = std::atoi(needValue("--snapshot-every"));
    } else if (!std::strcmp(argv[i], "--full-broadcasts")) {
      cfg.full_broadcasts = true;
    } else if (!std::strcmp(argv[i], "--standby-of")) {
      cfg.standby_of =
          static_cast<std::uint16_t>(std::atoi(needValue("--standby-of")));
    } else if (!std::strcmp(argv[i], "--takeover-intervals")) {
      cfg.takeover_intervals = std::atoi(needValue("--takeover-intervals"));
    } else if (!std::strcmp(argv[i], "--checkpoint-dir")) {
      cfg.checkpoint_dir = needValue("--checkpoint-dir");
    } else if (!std::strcmp(argv[i], "--checkpoint-interval")) {
      cfg.checkpoint_interval = std::atof(needValue("--checkpoint-interval"));
    } else if (!std::strcmp(argv[i], "--send-queue-max")) {
      cfg.send_queue_max =
          static_cast<std::size_t>(std::atoll(needValue("--send-queue-max")));
    } else if (!std::strcmp(argv[i], "--metrics-dump")) {
      cfg.metrics_dump_path = needValue("--metrics-dump");
    } else if (!std::strcmp(argv[i], "--metrics-interval")) {
      cfg.metrics_dump_interval = std::atof(needValue("--metrics-interval"));
    } else if (!std::strcmp(argv[i], "--verbose")) {
      util::setLogLevel(util::LogLevel::kInfo);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage();
    }
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // A rejected configuration (a non-finite --q1 or --factor, say) is
  // reported, not aborted on.
  std::unique_ptr<runtime::Coordinator> owned;
  try {
    owned = std::make_unique<runtime::Coordinator>(cfg);
    owned->start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aalo_coordinator: %s\n", e.what());
    return 1;
  }
  runtime::Coordinator& coordinator = *owned;
  std::printf("aalo_coordinator listening on 127.0.0.1:%u (delta=%s, K=%d, Q1=%s)\n",
              coordinator.port(), util::formatSeconds(cfg.sync_interval).c_str(),
              cfg.dclas.num_queues,
              util::formatBytes(cfg.dclas.first_threshold).c_str());
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const auto& stats = coordinator.stats();
    std::printf(
        "daemons=%zu coflows=%zu epoch=%llu tombstones=%zu evicted=%llu "
        "one_way=%llu malformed=%llu\n",
        coordinator.daemonCount(), coordinator.registeredCoflows(),
        static_cast<unsigned long long>(coordinator.epoch()),
        coordinator.tombstoneCount(),
        static_cast<unsigned long long>(stats.daemons_evicted.load()),
        static_cast<unsigned long long>(stats.one_way_evictions.load()),
        static_cast<unsigned long long>(stats.malformed_frames.load()));
    std::fflush(stdout);
  }
  coordinator.stop();
  std::printf("shut down cleanly\n");
  return 0;
}
