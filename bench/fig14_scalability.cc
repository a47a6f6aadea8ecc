// Figure 14: Aalo at scale.
//  (a) Real coordination rounds over loopback TCP: a coordinator serving N
//      emulated daemons (each receiving the round's schedule frame and
//      answering with a size report). The paper measured 8ms at 100
//      daemons up to 992ms at 100,000 (EC2, 100 machines); here every
//      daemon shares one host, so absolute numbers differ but the linear
//      growth in N is the result. Rounds run the delta-coded data path
//      (kScheduleDelta heartbeats, changed-coflows-only reports), with
//      bytes-on-wire per round recorded. A daemons sweep runs the
//      coordinator's single loop at up to 100k daemons, and one point
//      holds >= 1M live coflows.
//  (b) Simulation: the price of stale coordination — Aalo's improvement
//      over per-flow fairness as Δ grows.
//
// `--json PATH` skips panel (b) and records panel (a) as machine-readable
// JSON (see tools/bench_net_record.sh): rounds at N ∈ {100, 1000}, the
// daemons sweep, HA drills, and the live-coflow point. `--daemons` (a
// comma list) overrides the sweep grid; `--sweep-only` records just the
// sweep (the CI perf gate's mode). A point that times no round at all
// makes the run exit non-zero instead of recording it.
//
// Host constraints, disclosed in the JSON: the coordinator's loop thread
// and the emulated daemons share the host's cores, whose count is
// detected and recorded (`host_cores`). RLIMIT_NOFILE (20000, with both
// ends of every loopback socket in this process) caps physical
// connections at 2500; above that, logical daemons are multiplexed over
// shared connections (`mux_factor` per sweep point) — valid because the
// coordinator keys size reports by the message's daemon_id, not by
// connection.
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench/common.h"
#include "net/connection.h"
#include "net/protocol.h"
#include "runtime/client.h"
#include "runtime/coordinator.h"
#include "tools/cli_number.h"

using namespace aalo;

namespace {

/// Physical-connection ceiling: RLIMIT_NOFILE is 20000 here and every
/// emulated daemon's loopback socket holds two fds in this process.
constexpr std::size_t kMaxConnections = 2500;

struct RoundCost {
  double avg_fanout_seconds = -1;  ///< First to last delivery per round.
  double down_bytes_per_round = 0; ///< Broadcast bytes, all daemons.
  double up_bytes_per_round = 0;   ///< Size-report bytes, all daemons.
  std::size_t live_coflows = 0;    ///< Coflow population actually driven.
};

struct RoundOptions {
  /// Adds one extra registered daemon that never reads a byte (a
  /// blackholed machine); the coordinator's backpressure must park it
  /// without slowing the healthy fan-out.
  bool blackhole_peer = false;
  /// Disables the liveness/one-way watchdogs. The isolation A/B sets it
  /// on both sides so the blackholed peer is isolated by backpressure, not
  /// evicted; the fixed-size rounds set it so a slow round cannot evict
  /// emulated daemons and shrink the measured fleet.
  bool disable_watchdogs = false;
};

/// One measured configuration of the loopback round benchmark.
struct RoundSetup {
  std::size_t daemons = 0;      ///< Logical daemons (reporting identities).
  /// Physical TCP connections; 0 = one per daemon. When fewer than
  /// `daemons`, each connection multiplexes daemons/connections logical
  /// daemons (Hello once, reports under each logical daemon_id).
  std::size_t connections = 0;
  /// Coflow population. <= 1000 keeps the legacy shared model (every
  /// daemon reports against the same 100 coflows); above that the
  /// population is partitioned into disjoint per-daemon slices and seeded
  /// through paced absolute reports before the timed window.
  std::size_t coflows = 100;
  int rounds = 15;
  double interval = -1;         ///< Sync interval Δ; < 0 = legacy formula.
  RoundOptions opt;
};

/// Runs `rounds` coordination rounds against a live Coordinator and
/// returns the average time from a round's first schedule delivery to its
/// last (the broadcast fan-out cost the paper plots) plus the bytes
/// crossing the wire per round. In the legacy shared-coflow model, every
/// round 5 of the 100 coflows grow, each on a rotating 1-in-20 subset of
/// the daemons — the steady state the delta path is designed for: a
/// handful of changed coflows per Δ against a standing population, with
/// most machines seeing no change at all that Δ. Daemons send
/// changed-only reports with the real daemon's keepalive pacing for idle
/// ticks (keepalives only in the unmultiplexed shape — idle *logical*
/// daemons on a shared connection stay silent).
RoundCost measureRounds(const RoundSetup& s) {
  const std::size_t conns = s.connections == 0 ? s.daemons : s.connections;
  const std::size_t mux = s.daemons / conns;  // Logical daemons per connection.
  const bool partitioned = s.coflows > 1000;
  const bool keepalives = mux == 1 && !partitioned;

  runtime::CoordinatorConfig ccfg;
  // Rounds must not overlap or send backlogs compound — the paper makes
  // the same point: "Δ must be increased for Aalo to scale" (§7.6).
  ccfg.sync_interval =
      s.interval > 0
          ? s.interval
          : std::max(0.050, static_cast<double>(s.daemons) * 100e-6);
  if (s.opt.disable_watchdogs || mux > 1) {
    // Multiplexed logical daemons report only when they have traffic; the
    // per-peer watchdogs would evict their shared connection for silence.
    ccfg.liveness_timeout_intervals = 0;
    ccfg.one_way_timeout_intervals = 0;
  }
  runtime::Coordinator coordinator(ccfg);
  coordinator.start();

  // Coflow population. Legacy model: 100 concurrent coflows' scheduling
  // info per update, as in the paper, registered through a real client.
  // Partitioned model: a fabricated population far beyond what per-id
  // registration round trips could seed — coflows become live through
  // size reports alone (ScheduleState::applySize creates entries), each
  // logical daemon owning a disjoint slice.
  std::unique_ptr<runtime::AaloClient> client;
  std::vector<coflow::CoflowId> coflows;
  std::size_t slice = 0;  // Coflows per logical daemon (partitioned only).
  if (partitioned) {
    slice = (s.coflows + s.daemons - 1) / s.daemons;
    coflows.reserve(slice * s.daemons);
    for (std::size_t j = 0; j < slice * s.daemons; ++j) {
      // High external ids keep fabricated coflows clear of minted ones.
      coflows.push_back(coflow::CoflowId{
          .external = static_cast<std::int64_t>((1ll << 40) + j),
          .internal = 0});
    }
  } else {
    client = std::make_unique<runtime::AaloClient>(coordinator.port());
    for (std::size_t i = 0; i < s.coflows; ++i) {
      coflows.push_back(client->registerCoflow());
    }
  }

  using Clock = std::chrono::steady_clock;
  struct EpochTimes {
    Clock::time_point first;
    Clock::time_point last;
    std::size_t count = 0;
  };
  std::unordered_map<std::uint64_t, EpochTimes> epochs;

  // Byte accounting is restricted to the measured epoch window so the
  // settle phase (connects, per-peer snapshots, population seeding) does
  // not pollute the steady-state numbers.
  std::uint64_t window_begin = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t window_end = std::numeric_limits<std::uint64_t>::max();
  double bytes_down = 0, bytes_up = 0;

  // Per-daemon absolute local sizes (what a real daemon accumulates):
  // the full shared population in the legacy model, the daemon's own
  // slice in the partitioned one.
  std::vector<std::vector<double>> local(
      s.daemons, std::vector<double>(partitioned ? slice : coflows.size(), 0));

  net::EventLoop loop;
  std::vector<std::unique_ptr<net::Connection>> daemons;
  daemons.reserve(conns);
  std::uint64_t max_full_epoch = 0;

  // One size report from logical daemon `d`, mirroring runtime::Daemon:
  // only the coflows whose local bytes changed, and an idle tick is
  // suppressed entirely save for an empty keepalive every 3rd Δ (the
  // daemon's kReportKeepaliveIntervals). Replies happen inline, so the
  // timed window is the full round on this host: schedule deliveries
  // with the daemons' report encode/send work serialized between them —
  // the same end-to-end per-Δ cost the paper's Fig. 14 plots.
  std::vector<int> ticks_since_report(keepalives ? s.daemons : 0, 0);
  auto sendReport = [&](std::size_t d, std::uint64_t epoch, bool in_window) {
    const bool has_traffic = d % 20 == epoch % 20;
    net::Message report;
    report.type = net::MessageType::kSizeReport;
    report.daemon_id = d;
    report.epoch = epoch;  // Echo, as a live daemon would.
    if (partitioned) {
      if (!has_traffic) return;
      for (std::size_t i = 0; i < 5; ++i) {
        const std::size_t k =
            (static_cast<std::size_t>(epoch) * 5 + i) % slice;
        local[d][k] += 10 * util::kMB;
        report.sizes.push_back(
            net::CoflowSize{coflows[d * slice + k], local[d][k]});
      }
    } else {
      for (std::size_t i = 0; i < coflows.size(); ++i) {
        const bool changed = has_traffic && i % 20 == epoch % 20;
        if (!changed) continue;
        local[d][i] += 10 * util::kMB;
        report.sizes.push_back(net::CoflowSize{coflows[i], local[d][i]});
      }
      if (report.sizes.empty()) {
        if (!keepalives) return;  // Idle multiplexed daemons stay silent.
        if (++ticks_since_report[d] < 3) {
          return;  // Suppressed, exactly as the real daemon would.
        }
      }
      if (keepalives) ticks_since_report[d] = 0;
    }
    net::Buffer out;
    net::encodeMessage(report, out);
    if (in_window) bytes_up += static_cast<double>(out.readableBytes());
    daemons[d / mux]->sendFrame(out);
  };

  for (std::size_t c = 0; c < conns; ++c) {
    net::Fd fd = net::connectTcp(coordinator.port());
    auto conn = std::make_unique<net::Connection>(
        loop, std::move(fd),
        [&, c](net::Buffer& payload) {
          const auto frame_bytes = static_cast<double>(payload.readableBytes());
          const auto msg = net::decodeMessage(payload);
          if (msg.type != net::MessageType::kScheduleUpdate &&
              msg.type != net::MessageType::kScheduleDelta) {
            return;
          }
          const bool in_window =
              msg.epoch >= window_begin && msg.epoch < window_end;
          if (in_window) bytes_down += frame_bytes;
          auto& times = epochs[msg.epoch];
          const auto now = Clock::now();
          if (times.count == 0) times.first = now;
          times.last = now;
          if (++times.count == conns && msg.epoch > max_full_epoch) {
            max_full_epoch = msg.epoch;
          }
          for (std::size_t k = 0; k < mux; ++k) {
            sendReport(c * mux + k, msg.epoch, in_window);
          }
        },
        net::Connection::CloseHandler{});
    daemons.push_back(std::move(conn));
    // Hello so the coordinator counts the connection as a daemon (one
    // Hello per connection; multiplexed reports carry their own ids).
    net::Message hello;
    hello.type = net::MessageType::kHello;
    hello.daemon_id = c * mux;
    net::Buffer out;
    net::encodeMessage(hello, out);
    daemons.back()->sendFrame(out);
  }

  // A blackholed machine: says Hello over a raw blocking socket (same
  // [u32 length][payload] framing Connection writes), then never reads.
  // Broadcasts pile up in its kernel buffers until the coordinator's
  // backpressure parks it; it must not slow the healthy rounds timed
  // below. The fd stays open (and unread) for the whole measurement.
  net::Fd blackholed;
  if (s.opt.blackhole_peer) {
    blackholed = net::connectTcp(coordinator.port(), /*non_blocking=*/false);
    net::Message hello;
    hello.type = net::MessageType::kHello;
    hello.daemon_id = s.daemons + 7;
    net::Buffer payload;
    net::encodeMessage(hello, payload);
    net::Buffer frame;
    frame.putU32(static_cast<std::uint32_t>(payload.readableBytes()));
    frame.append(payload.readable());
    const auto bytes = frame.readable();
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::write(blackholed.get(), bytes.data() + off,
                                bytes.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
  }
  const std::size_t settle_target = conns + (s.opt.blackhole_peer ? 1 : 0);

  // Let the fleet settle, then time `rounds` full epochs. The deadline
  // scales with the configured interval: the big sweep points run long
  // rounds by design.
  const auto deadline =
      Clock::now() +
      std::chrono::seconds(
          90 + static_cast<int>(ccfg.sync_interval *
                                (static_cast<double>(s.rounds) +
                                 static_cast<double>(mux)) *
                                6.0));
  while (coordinator.daemonCount() < settle_target && Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(5));
  }
  // Epochs broadcast while connections were still joining can never be
  // fully delivered — their frames only went to the peers connected at
  // the time. Wait for a post-settle epoch to complete end to end before
  // deriving the timed window (or pacing the seeding) off max_full_epoch,
  // else the window can cover permanently incomplete epochs.
  const std::uint64_t settled_epoch = max_full_epoch;
  while (max_full_epoch < settled_epoch + 2 && Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(5));
  }

  if (partitioned) {
    // Seed the population in paced batches: one logical daemon's full
    // slice per connection per epoch. Seeding everything at once would
    // put the entire population into a single delta frame per peer
    // (coflows x ~25 B, fanned out to every connection); pacing keeps
    // each tick's delta at conns x slice entries.
    std::vector<std::size_t> next_seed(conns, 0);
    std::size_t seeded = 0;
    std::uint64_t seed_epoch = max_full_epoch;
    while (seeded < s.daemons && Clock::now() < deadline) {
      if (max_full_epoch > seed_epoch) {
        seed_epoch = max_full_epoch;
        for (std::size_t c = 0; c < conns; ++c) {
          if (next_seed[c] >= mux) continue;
          const std::size_t d = c * mux + next_seed[c]++;
          net::Message report;
          report.type = net::MessageType::kSizeReport;
          report.daemon_id = d;
          report.epoch = seed_epoch;
          report.sizes.reserve(slice);
          for (std::size_t k = 0; k < slice; ++k) {
            // Spread starting sizes so the population lands across the
            // D-CLAS queues instead of piling into the first one.
            local[d][k] =
                (1.0 + static_cast<double>((d * slice + k) % 64)) * util::kMB;
            report.sizes.push_back(
                net::CoflowSize{coflows[d * slice + k], local[d][k]});
          }
          net::Buffer out;
          net::encodeMessage(report, out);
          daemons[c]->sendFrame(out);
          ++seeded;
        }
      }
      loop.runOnce(std::chrono::milliseconds(5));
    }
  }

  const std::uint64_t start_epoch = max_full_epoch + 2;
  const std::uint64_t end_epoch = start_epoch + static_cast<std::uint64_t>(s.rounds);
  window_begin = start_epoch;
  window_end = end_epoch;
  while (max_full_epoch < end_epoch && Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(5));
  }

  double total = 0;
  int counted = 0;
  for (const auto& [epoch, times] : epochs) {
    if (epoch >= start_epoch && epoch < end_epoch && times.count == conns) {
      total += std::chrono::duration<double>(times.last - times.first).count();
      ++counted;
    }
  }
  daemons.clear();
  coordinator.stop();
  RoundCost cost;
  cost.avg_fanout_seconds = counted > 0 ? total / counted : -1;
  cost.down_bytes_per_round = bytes_down / s.rounds;
  cost.up_bytes_per_round = bytes_up / s.rounds;
  cost.live_coflows = coflows.size();
  return cost;
}

struct FailoverCost {
  double p50_seconds = -1;   ///< Median kill-to-recovered time per daemon.
  double p99_seconds = -1;
  std::size_t recovered = 0; ///< Daemons that converged on the standby.
};

/// Kills a primary serving `num_daemons` emulated daemons mid-stream and
/// measures, per daemon, the time from the kill to the first fenced
/// schedule frame applied from the promoted warm standby (detection +
/// reconnect + takeover + re-broadcast — the full outage as a machine
/// experiences it). Daemons redial the standby as soon as their primary
/// connection drops, exactly like runtime::Daemon's endpoint rotation.
FailoverCost measureFailover(std::size_t num_daemons) {
  using Clock = std::chrono::steady_clock;
  runtime::CoordinatorConfig ccfg;
  ccfg.sync_interval = std::max(0.050, static_cast<double>(num_daemons) * 100e-6);
  auto primary = std::make_unique<runtime::Coordinator>(ccfg);
  primary->start();
  runtime::CoordinatorConfig scfg = ccfg;
  scfg.standby_of = primary->port();
  scfg.takeover_intervals = 5;
  runtime::Coordinator standby(scfg);
  standby.start();

  runtime::AaloClient client(primary->port());
  std::vector<coflow::CoflowId> coflows;
  for (int i = 0; i < 100; ++i) coflows.push_back(client.registerCoflow());

  net::EventLoop loop;
  std::vector<std::unique_ptr<net::Connection>> daemons(num_daemons);
  std::vector<Clock::time_point> recovered_at(num_daemons);
  std::vector<char> recovered(num_daemons, 0), needs_dial(num_daemons, 0);
  std::size_t recovered_count = 0;
  bool killed = false;
  Clock::time_point kill_time;

  auto dial = [&](std::size_t d, std::uint16_t port) {
    net::Fd fd = net::connectTcp(port);
    daemons[d] = std::make_unique<net::Connection>(
        loop, std::move(fd),
        [&, d](net::Buffer& payload) {
          const auto msg = net::decodeMessage(payload);
          if (msg.type != net::MessageType::kScheduleUpdate &&
              msg.type != net::MessageType::kScheduleDelta) {
            return;
          }
          // Fence 2 can only come from the promoted standby.
          if (killed && !recovered[d] && msg.fence >= 2) {
            recovered[d] = 1;
            recovered_at[d] = Clock::now();
            ++recovered_count;
          }
        },
        [&, d] { needs_dial[d] = 1; });
    net::Message hello;
    hello.type = net::MessageType::kHello;
    hello.daemon_id = d;
    net::Buffer out;
    net::encodeMessage(hello, out);
    daemons[d]->sendFrame(out);
    // One absolute report so the recovered schedule is non-trivial; the
    // redial resends it, mirroring the real daemon's forced resync.
    net::Message report;
    report.type = net::MessageType::kSizeReport;
    report.daemon_id = d;
    report.sizes.push_back(
        net::CoflowSize{coflows[d % coflows.size()], 10 * util::kMB});
    out.clear();
    net::encodeMessage(report, out);
    daemons[d]->sendFrame(out);
  };

  for (std::size_t d = 0; d < num_daemons; ++d) dial(d, primary->port());
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (primary->daemonCount() < num_daemons && Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(5));
  }
  // Loopback settle beats the primary's first broadcast tick: killing now
  // would measure a cold-start takeover of an empty standby. Wait until
  // the standby has mirrored a snapshot plus a delta — the warm-standby
  // scenario this benchmark claims to measure.
  while (standby.stats().follower_frames_applied.load(
             std::memory_order_relaxed) < 2 &&
         Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(5));
  }

  kill_time = Clock::now();
  killed = true;
  primary->stop();
  primary.reset();

  while (recovered_count < num_daemons && Clock::now() < deadline) {
    loop.runOnce(std::chrono::milliseconds(1));
    for (std::size_t d = 0; d < num_daemons; ++d) {
      if (!needs_dial[d]) continue;
      needs_dial[d] = 0;  // Replacing daemons[d] outside its callbacks.
      dial(d, standby.port());
    }
  }

  FailoverCost cost;
  cost.recovered = recovered_count;
  if (recovered_count > 0) {
    std::vector<double> times;
    times.reserve(recovered_count);
    for (std::size_t d = 0; d < num_daemons; ++d) {
      if (recovered[d]) {
        times.push_back(
            std::chrono::duration<double>(recovered_at[d] - kill_time).count());
      }
    }
    std::sort(times.begin(), times.end());
    cost.p50_seconds = times[times.size() / 2];
    cost.p99_seconds = times[std::min(times.size() - 1, times.size() * 99 / 100)];
  }
  daemons.clear();
  standby.stop();
  return cost;
}

std::string formatBytes(double bytes) {
  char buf[32];
  if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1e3);
  }
  return buf;
}

// --- daemons sweep ---------------------------------------------------------

struct SweepResult {
  std::size_t daemons = 0;
  std::size_t connections = 0;
  std::size_t mux = 1;
  int rounds = 0;
  double interval = 0;
  RoundCost cost;
};

SweepResult runSweepPoint(std::size_t daemons, int rounds_override) {
  SweepResult r;
  r.daemons = daemons;
  // Smallest mux factor that fits the connection ceiling and divides the
  // daemon count evenly (logical daemons per connection must be uniform).
  std::size_t mux = (daemons + kMaxConnections - 1) / kMaxConnections;
  while (daemons % mux != 0) ++mux;
  r.mux = mux;
  r.connections = daemons / mux;
  r.rounds = rounds_override > 0 ? rounds_override
             : daemons <= 1000   ? 15
             : daemons <= 10000  ? 10
                                 : 5;
  // Δ grows with N per §7.6.
  r.interval = std::max(0.050, static_cast<double>(daemons) * 20e-6);

  RoundSetup s;
  s.daemons = daemons;
  s.connections = r.connections;
  s.rounds = r.rounds;
  s.interval = r.interval;
  r.cost = measureRounds(s);
  std::fprintf(stderr,
               "  [sweep %6zu daemons, %4zu conns] round %s, down %s, up %s\n",
               daemons, r.connections,
               util::formatSeconds(r.cost.avg_fanout_seconds).c_str(),
               formatBytes(r.cost.down_bytes_per_round).c_str(),
               formatBytes(r.cost.up_bytes_per_round).c_str());
  return r;
}

/// A point that timed no round (every epoch incomplete before the
/// deadline) has nothing to record; a ratio built from it would be noise.
bool timedRounds(const RoundCost& cost, const std::string& what) {
  if (cost.avg_fanout_seconds > 0) return true;
  std::fprintf(stderr, "fig14: %s timed no coordination round\n", what.c_str());
  return false;
}

struct JsonOptions {
  const char* path = nullptr;
  std::vector<std::size_t> daemons_list;
  int rounds_override = -1;
  /// Record only the daemons sweep (skips the fixed-size rounds, the HA
  /// drills, and the live-coflow point) — the CI perf gate's mode.
  bool sweep_only = false;
  /// Coflow population for the high-cardinality point; 0 skips it.
  std::size_t live_coflows = 1'000'000;
  /// --live-coflows was given explicitly: run the point even under
  /// --sweep-only (which otherwise skips it along with the HA drills).
  bool live_coflows_explicit = false;
};

/// `--json PATH` mode: the record the acceptance criteria cite
/// (BENCH_net.json) — rounds at N ∈ {100, 1000}, the daemons sweep, HA
/// drills, and the >= 1M live-coflow point. The file is written only once
/// every point has timed rounds.
int recordJson(const JsonOptions& jopt) {
  const int rounds = 15;
  std::ostringstream out;
  // Detected, not assumed: round times only mean something next to the
  // cores the coordinator and the in-process daemons had to share.
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  out << "{\n  \"bench\": \"fig14_coordination_data_path\",\n"
      << "  \"rounds\": " << rounds << ",\n  \"coflows\": 100,\n"
      << "  \"changed_per_round\": 5,\n"
      << "  \"host_cores\": " << host_cores << ",\n"
      << "  \"single_core_host\": " << (host_cores == 1 ? "true" : "false")
      << ",\n"
      << "  \"mux_note\": \"logical daemons share TCP connections above "
      << kMaxConnections
      << " (RLIMIT_NOFILE; both socket ends in-process); fan-out timing "
         "is per connection — see connections/mux_factor per point\",\n"
      << "  \"results\": [";
  bool first = true;
  if (!jopt.sweep_only) {
    for (const std::size_t n : {100ul, 1000ul}) {
      const RoundCost cost = measureRounds(
          {.daemons = n, .rounds = rounds, .opt = {.disable_watchdogs = true}});
      if (!timedRounds(cost, "delta @" + std::to_string(n))) return 1;
      out << (first ? "" : ",") << "\n    {\"daemons\": " << n
          << ", \"mode\": \"delta\", \"avg_round_s\": "
          << cost.avg_fanout_seconds
          << ", \"down_bytes_per_round\": " << cost.down_bytes_per_round
          << ", \"up_bytes_per_round\": " << cost.up_bytes_per_round << "}";
      first = false;
      std::fprintf(stderr, "  [delta %4zu daemons] round %s, down %s, up %s\n",
                   n, util::formatSeconds(cost.avg_fanout_seconds).c_str(),
                   formatBytes(cost.down_bytes_per_round).c_str(),
                   formatBytes(cost.up_bytes_per_round).c_str());
    }
  }
  out << "\n  ],";

  // The daemons sweep, multiplexed above the connection ceiling.
  const std::vector<std::size_t> grid =
      jopt.daemons_list.empty() ? std::vector<std::size_t>{1000, 10000, 100000}
                                : jopt.daemons_list;
  out << "\n  \"daemons_sweep\": [";
  first = true;
  for (const std::size_t daemons : grid) {
    const SweepResult r = runSweepPoint(daemons, jopt.rounds_override);
    if (!timedRounds(r.cost, "sweep @" + std::to_string(daemons))) return 1;
    out << (first ? "" : ",") << "\n    {\"daemons\": " << r.daemons
        << ", \"connections\": " << r.connections
        << ", \"mux_factor\": " << r.mux << ", \"rounds\": " << r.rounds
        << ", \"interval_s\": " << r.interval
        << ", \"avg_round_s\": " << r.cost.avg_fanout_seconds
        << ", \"down_bytes_per_round\": " << r.cost.down_bytes_per_round
        << ", \"up_bytes_per_round\": " << r.cost.up_bytes_per_round << "}";
    first = false;
  }
  out << "\n  ]";

  if ((!jopt.sweep_only || jopt.live_coflows_explicit) &&
      jopt.live_coflows > 0) {
    // High-cardinality point: a >= 1M live-coflow schedule state. Few
    // connections by design — the cost being measured is the coordination
    // tick against a huge standing population, not fan-out width.
    RoundSetup lc;
    lc.daemons = 256;
    lc.connections = 8;
    lc.coflows = jopt.live_coflows;
    lc.rounds = 10;
    lc.interval = 0.050;
    const RoundCost lcost = measureRounds(lc);
    if (!timedRounds(lcost, "live-coflows point")) return 1;
    std::fprintf(stderr,
                 "  [live-coflows %zu, 256 daemons] round %s\n",
                 lcost.live_coflows,
                 util::formatSeconds(lcost.avg_fanout_seconds).c_str());
    out << ",\n  \"live_coflows\": {\"coflows\": " << lcost.live_coflows
        << ", \"daemons\": 256, \"connections\": 8"
        << ", \"rounds\": " << lc.rounds
        << ", \"avg_round_s\": " << lcost.avg_fanout_seconds
        << ", \"down_bytes_per_round\": " << lcost.down_bytes_per_round
        << ", \"up_bytes_per_round\": " << lcost.up_bytes_per_round << "}";
  }

  if (!jopt.sweep_only) {
    // High-availability record: warm-standby failover recovery and the
    // blackholed-daemon isolation A/B, both at 1000 daemons.
    const FailoverCost failover = measureFailover(1000);
    std::fprintf(stderr,
                 "  [failover 1000 daemons] recovered %zu, p50 %s, p99 %s\n",
                 failover.recovered,
                 util::formatSeconds(failover.p50_seconds).c_str(),
                 util::formatSeconds(failover.p99_seconds).c_str());
    RoundSetup iso{.daemons = 1000,
                   .rounds = rounds,
                   .opt = {.disable_watchdogs = true}};
    const RoundCost iso_healthy = measureRounds(iso);
    iso.opt.blackhole_peer = true;
    const RoundCost iso_degraded = measureRounds(iso);
    if (!timedRounds(iso_healthy, "isolation healthy @1000") ||
        !timedRounds(iso_degraded, "isolation blackholed @1000")) {
      return 1;
    }
    const double iso_ratio =
        iso_degraded.avg_fanout_seconds / iso_healthy.avg_fanout_seconds;
    std::fprintf(stderr,
                 "  [isolation 1000 daemons] healthy round %s, with blackholed "
                 "peer %s (ratio %.2f)\n",
                 util::formatSeconds(iso_healthy.avg_fanout_seconds).c_str(),
                 util::formatSeconds(iso_degraded.avg_fanout_seconds).c_str(),
                 iso_ratio);

    out << ",\n  \"failover\": {\"daemons\": 1000, \"takeover_intervals\": 5"
        << ", \"recovered\": " << failover.recovered
        << ", \"recovery_p50_s\": " << failover.p50_seconds
        << ", \"recovery_p99_s\": " << failover.p99_seconds << "}"
        << ",\n  \"overload_isolation\": {\"daemons\": 1000"
        << ", \"healthy_round_s\": " << iso_healthy.avg_fanout_seconds
        << ", \"blackholed_round_s\": " << iso_degraded.avg_fanout_seconds
        << ", \"round_time_ratio\": " << iso_ratio << "}";
  }
  out << "\n}\n";
  std::ofstream file(jopt.path);
  file << out.str();
  if (!file.flush()) {
    std::fprintf(stderr, "fig14: cannot write %s\n", jopt.path);
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", jopt.path);
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_fig14_scalability [--json PATH] [--daemons N,N,...] "
               "[--rounds R] [--sweep-only] [--live-coflows M]\n");
  std::exit(2);
}

/// A comma-separated list of daemon counts, each a whole number >= 1.
std::vector<std::size_t> parseSizeList(const char* arg) {
  std::vector<std::size_t> out;
  std::stringstream list(arg);
  std::string element;
  while (std::getline(list, element, ',')) {
    out.push_back(tools::parseNumber("--daemons", element.c_str(), std::size_t{1}, usage));
  }
  if (out.empty()) usage();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonOptions jopt;
  for (int i = 1; i < argc; ++i) {
    const auto needsValue = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fig14: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      jopt.path = needsValue("--json");
    } else if (std::strcmp(argv[i], "--daemons") == 0) {
      jopt.daemons_list = parseSizeList(needsValue("--daemons"));
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      jopt.rounds_override = tools::parseNumber("--rounds", needsValue("--rounds"), 1, usage);
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      jopt.sweep_only = true;
    } else if (std::strcmp(argv[i], "--live-coflows") == 0) {
      jopt.live_coflows = tools::parseNumber(
          "--live-coflows", needsValue("--live-coflows"), std::size_t{0}, usage);
      jopt.live_coflows_explicit = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage();
    }
  }
  if (jopt.path != nullptr) return recordJson(jopt);

  bench::header(
      "Figure 14: scalability",
      "(a) coordination time grows ~linearly with daemon count (paper: "
      "8ms @100 ... 992ms @100k daemons across 100 machines); (b) "
      "improvement over fairness degrades gently to Δ=1s (1.93x -> "
      "1.78x) and collapses past Δ=10s");

  std::printf("\nFigure 14a — real loopback coordination rounds "
              "(100 coflows, 5 changing per Δ):\n");
  util::Table rounds_table({"# emulated daemons", "round", "wire/round"});
  for (const std::size_t n : {100ul, 500ul, 1000ul, 2500ul, 5000ul}) {
    const RoundCost cost =
        measureRounds({.daemons = n, .opt = {.disable_watchdogs = true}});
    rounds_table.addRow(
        {std::to_string(n),
         cost.avg_fanout_seconds < 0
             ? "timeout"
             : util::formatSeconds(cost.avg_fanout_seconds),
         formatBytes(cost.down_bytes_per_round + cost.up_bytes_per_round)});
    std::fprintf(stderr, "  [fanout %5zu daemons] done\n", n);
  }
  rounds_table.print(std::cout);

  std::printf("\nHigh availability at 1000 daemons (warm standby, "
              "takeover after 5Δ):\n");
  const FailoverCost failover = measureFailover(1000);
  std::printf("  failover recovery: %zu/1000 daemons, p50 %s, p99 %s\n",
              failover.recovered,
              util::formatSeconds(failover.p50_seconds).c_str(),
              util::formatSeconds(failover.p99_seconds).c_str());
  RoundSetup iso{.daemons = 1000, .opt = {.disable_watchdogs = true}};
  const RoundCost iso_healthy = measureRounds(iso);
  iso.opt.blackhole_peer = true;
  const RoundCost iso_degraded = measureRounds(iso);
  std::printf("  blackholed-peer isolation: healthy round %s vs %s "
              "(ratio %.2f)\n",
              util::formatSeconds(iso_healthy.avg_fanout_seconds).c_str(),
              util::formatSeconds(iso_degraded.avg_fanout_seconds).c_str(),
              iso_healthy.avg_fanout_seconds > 0
                  ? iso_degraded.avg_fanout_seconds /
                        iso_healthy.avg_fanout_seconds
                  : -1.0);

  std::printf("\nFigure 14b — impact of the coordination interval Δ "
              "(simulation):\n");
  const auto wl = bench::standardWorkload(250, 40, 55);
  const auto fc = bench::standardFabric();
  // The Δ sweep is pure simulation — batch it. (Panel (a) above exercises
  // real sockets on this host and must stay serial to keep timings clean.)
  const std::vector<double> deltas = {0.01, 0.1, 1.0, 10.0, 100.0};
  std::vector<sim::BatchJob> jobs;
  jobs.push_back(bench::job(wl, fc, "fair", "per-flow fair"));
  for (const double delta : deltas) {
    jobs.push_back(
        bench::job(wl, fc, "aalo", "aalo Δ=" + util::formatSeconds(delta), delta));
  }
  const auto results = bench::runBatch(std::move(jobs));
  const auto& fair_result = results[0];
  util::Table delta_table({"Δ", "improvement over fair (avg CCT)"});
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    delta_table.addRow({util::formatSeconds(deltas[i]),
                        util::Table::num(
                            analysis::normalizedCct(fair_result, results[1 + i]).avg,
                            2) +
                            "x"});
  }
  delta_table.print(std::cout);
  std::printf("\n(paper: tiny coflows are still better off under Aalo than "
              "per-flow fairness even at large Δ)\n");
  return 0;
}
