// aalo_coordinator — run a standalone Aalo coordinator process.
//
//   aalo_coordinator [--port P] [--delta MS] [--queues K] [--q1 BYTES]
//                    [--factor E] [--max-on N] [--liveness-timeout N]
//                    [--one-way-timeout N] [--tombstone-gc N]
//                    [--standby-of PORT] [--takeover-intervals N]
//                    [--checkpoint-dir DIR] [--checkpoint-interval SECONDS]
//                    [--send-queue-max BYTES]
//                    [--metrics-dump PATH] [--metrics-interval SECONDS]
//                    [--verbose]
//
// The three timeout flags are in units of sync intervals (N * delta); 0
// disables the corresponding watchdog. Daemons get a full schedule
// snapshot on connect and on request (an epoch gap or a schedule-digest
// mismatch), and a schedule delta every round.
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
#include <string>
#include <thread>

#include "cli_number.h"
#include "metrics_dump.h"
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
               "                        [--tombstone-gc N] [--standby-of PORT]\n"
               "                        [--takeover-intervals N]\n"
               "                        [--checkpoint-dir DIR]\n"
               "                        [--checkpoint-interval SECONDS]\n"
               "                        [--send-queue-max BYTES]\n"
               "                        [--metrics-dump PATH]\n"
               "                        [--metrics-interval SECONDS] [--verbose]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  runtime::CoordinatorConfig cfg;
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
    if (!std::strcmp(argv[i], "--port")) {
      cfg.port = number("--port", std::uint16_t{0});
    } else if (!std::strcmp(argv[i], "--delta")) {
      cfg.sync_interval = number("--delta", tools::kPositive) * util::kMillisecond;
    } else if (!std::strcmp(argv[i], "--queues")) {
      // The D-CLAS values are range-checked by DClasConfig, whose rejection
      // (a non-finite --factor, say) exits 1 below; here only their syntax.
      cfg.dclas.num_queues =
          tools::parseWhole<int>("--queues", needValue("--queues"), usage);
    } else if (!std::strcmp(argv[i], "--q1")) {
      cfg.dclas.first_threshold =
          tools::parseWhole<double>("--q1", needValue("--q1"), usage);
    } else if (!std::strcmp(argv[i], "--factor")) {
      cfg.dclas.exp_factor =
          tools::parseWhole<double>("--factor", needValue("--factor"), usage);
    } else if (!std::strcmp(argv[i], "--max-on")) {
      cfg.max_on_coflows = number("--max-on", std::size_t{0});
    } else if (!std::strcmp(argv[i], "--liveness-timeout")) {
      cfg.liveness_timeout_intervals = number("--liveness-timeout", 0);
    } else if (!std::strcmp(argv[i], "--one-way-timeout")) {
      cfg.one_way_timeout_intervals = number("--one-way-timeout", 0);
    } else if (!std::strcmp(argv[i], "--tombstone-gc")) {
      cfg.tombstone_gc_intervals = number("--tombstone-gc", 0);
    } else if (!std::strcmp(argv[i], "--standby-of")) {
      cfg.standby_of = number("--standby-of", std::uint16_t{0});
    } else if (!std::strcmp(argv[i], "--takeover-intervals")) {
      cfg.takeover_intervals = number("--takeover-intervals", 0);
    } else if (!std::strcmp(argv[i], "--checkpoint-dir")) {
      cfg.checkpoint_dir = needValue("--checkpoint-dir");
    } else if (!std::strcmp(argv[i], "--checkpoint-interval")) {
      cfg.checkpoint_interval = number("--checkpoint-interval", 0.0);
    } else if (!std::strcmp(argv[i], "--send-queue-max")) {
      cfg.send_queue_max = number("--send-queue-max", std::size_t{0});
    } else if (!std::strcmp(argv[i], "--metrics-dump")) {
      metrics_dump_path = needValue("--metrics-dump");
    } else if (!std::strcmp(argv[i], "--metrics-interval")) {
      metrics_interval = number("--metrics-interval", 0.0);
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

  tools::MetricsDump dump(metrics_dump_path, metrics_interval);
  auto next_status = std::chrono::steady_clock::now();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    dump.tick(coordinator.metrics());
    if (std::chrono::steady_clock::now() < next_status) continue;
    next_status += std::chrono::seconds(1);
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
  dump.write(coordinator.metrics());
  std::printf("shut down cleanly\n");
  return 0;
}
