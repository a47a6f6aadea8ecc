// loopback_shuffle: the examples/shuffle_pipeline.cpp shape, repeated.
//
// A Coordinator and one runtime::Daemon (8 MB/s uplink, 1 MB first
// threshold, 4 queues, Δ = 10 ms) run in this process. Each shuffle round
// registers an 8 MB coflow and a few 512 KB coflows through AaloClient;
// one writer thread pushes the big coflow and a second one, starting a
// little later, pushes the small ones back to back, all through
// ThrottledWriter into drained socketpairs (ThrottledWriter sends with
// send(2), so /dev/null itself is not an option). The real CCT of a
// coflow runs from its first write to the return of its last.
//
// The same coflows, with the start times they really had, are then
// replayed by the fluid simulator on a one-uplink fabric under D-CLAS
// with the same thresholds and Δ; fluid_err compares the two averages.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "runtime/client.h"
#include "runtime/coordinator.h"
#include "runtime/daemon.h"
#include "sched/dclas.h"
#include "sim/simulator.h"

using namespace aalo;

namespace perfbench {
namespace {

constexpr util::Rate kUplink = 8 * util::kMB;
constexpr util::Bytes kFirstThreshold = 1 * util::kMB;
constexpr int kQueues = 4;
constexpr util::Seconds kDelta = 0.010;

struct ShuffleShape {
  std::size_t big_bytes = 8 * 1024 * 1024;
  std::size_t small_bytes = 512 * 1024;
  std::size_t smalls_per_round = 4;
  /// Set-up is about a millisecond, so take the median of many.
  std::size_t setups = 15;
};

/// CPU time of the benchmark's own threads (writers, drainers) in the
/// current phase; the control-plane CPU figure leaves it out.
std::atomic<std::int64_t> g_bench_cpu_ns{0};

std::int64_t threadCpuNs() { return static_cast<std::int64_t>(threadCpuSeconds() * 1e9); }

/// A socketpair whose far end a thread reads and discards.
class DrainedPair {
 public:
  DrainedPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    drainer_ = std::thread([this] {
      char sink[65536];
      while (::read(fds_[1], sink, sizeof(sink)) > 0) {
      }
      g_bench_cpu_ns.fetch_add(threadCpuNs(), std::memory_order_relaxed);
    });
  }
  ~DrainedPair() {
    ::shutdown(fds_[0], SHUT_RDWR);
    ::close(fds_[0]);
    drainer_.join();
    ::close(fds_[1]);
  }
  DrainedPair(const DrainedPair&) = delete;
  DrainedPair& operator=(const DrainedPair&) = delete;

  int writeFd() const { return fds_[0]; }

 private:
  int fds_[2] = {-1, -1};
  std::thread drainer_;
};

struct Plant {
  std::unique_ptr<runtime::Coordinator> coordinator;
  std::unique_ptr<runtime::Daemon> daemon;
  std::unique_ptr<runtime::AaloClient> client;

  ~Plant() {
    client.reset();
    if (daemon) daemon->stop();
    if (coordinator) coordinator->stop();
  }
};

std::unique_ptr<Plant> startPlant() {
  auto plant = std::make_unique<Plant>();
  runtime::CoordinatorConfig ccfg;
  ccfg.sync_interval = kDelta;
  ccfg.dclas.first_threshold = kFirstThreshold;
  ccfg.dclas.num_queues = kQueues;
  plant->coordinator = std::make_unique<runtime::Coordinator>(ccfg);
  plant->coordinator->start();

  runtime::DaemonConfig dcfg;
  dcfg.coordinator_port = plant->coordinator->port();
  dcfg.daemon_id = 1;
  dcfg.sync_interval = kDelta;
  dcfg.num_queues = kQueues;
  dcfg.uplink_capacity = kUplink;
  dcfg.dclas.first_threshold = kFirstThreshold;
  dcfg.dclas.num_queues = kQueues;
  plant->daemon = std::make_unique<runtime::Daemon>(dcfg);
  plant->daemon->start();
  plant->client = std::make_unique<runtime::AaloClient>(plant->coordinator->port());

  // Ready once the daemon has applied a schedule and the coordinator
  // counts it. (Both prove the loop threads are running: EventLoop::run()
  // clears the stop flag on entry, so a stop() that lands before a loop
  // thread first runs is lost and the join hangs.)
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!plant->daemon->connected() || plant->daemon->lastEpoch() == 0 ||
         plant->coordinator->daemonCount() == 0) {
    if (Clock::now() > deadline) throw std::runtime_error("daemon never synced");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return plant;
}

struct CoflowRun {
  double start_s = 0;  ///< Since the phase began.
  double cct_s = 0;
  std::size_t bytes = 0;
};

struct Phase {
  std::vector<CoflowRun> coflows;
  std::vector<double> demote_lag_ms;
  std::vector<double> global_demote_lag_ms;
  std::vector<double> round_s;  ///< First register to last unregister.
  double cpu_s = 0;  ///< Coordinator and daemon threads.
  std::uint64_t rounds = 0;  ///< Coordination epochs during the phase.
  std::uint64_t daemon_epochs = 0;
};

struct Spans {
  int round = Tracer::instance().intern("shuffle.round");
  int reg = Tracer::instance().intern("client.register");
  int unreg = Tracer::instance().intern("client.unregister");
};

/// Runs whole shuffle rounds until `seconds` have passed.
Phase runPhase(Plant& plant, const ShuffleShape& shape, double seconds, std::uint64_t seed,
               bool poll_demotion, Result& r) {
  static const Spans spans;
  Phase phase;
  const std::uint64_t epoch0 = plant.coordinator->epoch();
  const std::uint64_t daemon_epoch0 = plant.daemon->lastEpoch();
  const double cpu0 = processCpuSeconds();
  const double main_cpu0 = threadCpuSeconds();
  g_bench_cpu_ns = 0;
  const auto begin = Clock::now();
  const std::vector<std::uint8_t> big(shape.big_bytes, 0xB1);
  const std::vector<std::uint8_t> small(shape.small_bytes, 0x5E);
  constexpr std::size_t kCall = 64 * 1024;
  std::uint64_t round = 0;
  while (round == 0 || secondsSince(begin) < seconds) {
    ++round;
    // The small coflows join 200-300 ms after the big one (seeded).
    const auto small_delay = std::chrono::milliseconds(
        200 + static_cast<int>((seed * 2654435761ULL + round * 40503ULL) % 101));
    std::vector<coflow::CoflowId> ids;
    auto call = [&](int span, const coflow::CoflowId& tag, auto&& fn) {
      Span s(span, static_cast<std::uint64_t>(tag.external));
      try {
        fn();
        r.check(true, "client RPC returned");
      } catch (const std::exception& e) {
        r.check(false, std::string("client RPC returned: ") + e.what());
      }
    };
    const coflow::CoflowId none{};
    const auto round_begin = Clock::now();
    Span round_span(spans.round, round);
    for (std::size_t i = 0; i < 1 + shape.smalls_per_round; ++i) {
      coflow::CoflowId id;
      call(spans.reg, none, [&] { id = plant.client->registerCoflow(); });
      ids.push_back(id);
    }

    DrainedPair big_pair, small_pair;
    std::vector<CoflowRun> runs(ids.size());
    std::vector<std::size_t> written(ids.size(), 0);
    std::atomic<std::int64_t> crossed_ns{0};
    std::atomic<bool> writer_failed{false};
    std::atomic<bool> big_done{false};
    const auto round_start = Clock::now();
    auto offset = [&](Clock::time_point t) {
      return std::chrono::duration<double>(t - begin).count();
    };
    std::thread big_writer([&] {
      try {
        // 64 KB per call (ThrottledWriter's own chunk), so the call that
        // takes the coflow past the first threshold is known.
        runtime::ThrottledWriter writer(big_pair.writeFd(), ids[0], *plant.daemon);
        const auto start = Clock::now();
        for (std::size_t off = 0; off < big.size(); off += kCall) {
          writer.writeAll(big.data() + off, std::min(kCall, big.size() - off));
          if (crossed_ns.load(std::memory_order_relaxed) == 0 &&
              writer.bytesWritten() > kFirstThreshold) {
            crossed_ns.store(Clock::now().time_since_epoch().count(), std::memory_order_release);
          }
        }
        runs[0] = {offset(start), secondsSince(start), big.size()};
        written[0] = static_cast<std::size_t>(writer.bytesWritten());
      } catch (const std::exception&) {
        writer_failed = true;
      }
      big_done = true;
      g_bench_cpu_ns.fetch_add(threadCpuNs(), std::memory_order_relaxed);
    });
    std::thread small_writer([&] {
      try {
        std::this_thread::sleep_until(round_start + small_delay);
        for (std::size_t i = 1; i < ids.size(); ++i) {
          runtime::ThrottledWriter writer(small_pair.writeFd(), ids[i], *plant.daemon);
          const auto start = Clock::now();
          writer.writeAll(small.data(), small.size());
          runs[i] = {offset(start), secondsSince(start), small.size()};
          written[i] = static_cast<std::size_t>(writer.bytesWritten());
        }
      } catch (const std::exception&) {
        writer_failed = true;
      }
      g_bench_cpu_ns.fetch_add(threadCpuNs(), std::memory_order_relaxed);
    });
    if (poll_demotion) {
      // Poll from the start of the round for the big coflow in a lower
      // queue: at the daemon (Daemon::queueOf, which also applies local
      // D-CLAS to the bytes it has seen) and in the coordinator's schedule.
      // Each lag runs from the write that passed the first threshold.
      Clock::time_point local{}, global{};
      while (!big_done && (local == Clock::time_point{} || global == Clock::time_point{})) {
        if (local == Clock::time_point{} && plant.daemon->queueOf(ids[0]) > 0) {
          local = Clock::now();
        }
        if (global == Clock::time_point{}) {
          for (const net::ScheduleEntry& e : plant.coordinator->scheduleSnapshot()) {
            if (e.id == ids[0] && e.queue > 0) global = Clock::now();
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      const std::int64_t crossed = crossed_ns.load(std::memory_order_acquire);
      const auto crossed_at = Clock::time_point(Clock::duration(crossed));
      auto lagMs = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - crossed_at).count() * 1e3;
      };
      if (crossed != 0 && local != Clock::time_point{}) {
        phase.demote_lag_ms.push_back(lagMs(local));
      }
      if (crossed != 0 && global != Clock::time_point{}) {
        phase.global_demote_lag_ms.push_back(lagMs(global));
      }
    }
    big_writer.join();
    small_writer.join();
    r.check(!writer_failed, "throttled writes completed");
    for (std::size_t i = 0; i < ids.size(); ++i) {
      r.check(written[i] == (i == 0 ? big.size() : small.size()),
              "bytes written equal bytes requested");
      call(spans.unreg, ids[i], [&] { plant.client->unregisterCoflow(ids[i]); });
    }
    phase.coflows.insert(phase.coflows.end(), runs.begin(), runs.end());
    phase.round_s.push_back(secondsSince(round_begin));
  }
  // Coordinator and daemon threads: the process minus this thread, the
  // writers and the drainers.
  phase.cpu_s = (processCpuSeconds() - cpu0) - (threadCpuSeconds() - main_cpu0) -
                static_cast<double>(g_bench_cpu_ns.load()) * 1e-9;
  phase.rounds = plant.coordinator->epoch() - epoch0;
  phase.daemon_epochs = plant.daemon->lastEpoch() - daemon_epoch0;
  return phase;
}

/// Fluid-model average CCT of the same coflows: one flow each on a
/// one-uplink fabric, arriving when the real coflow started.
double fluidAvgCct(const std::vector<CoflowRun>& runs) {
  coflow::Workload workload;
  workload.num_ports = 2;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    coflow::JobSpec job;
    job.id = static_cast<coflow::JobId>(i + 1);
    job.arrival = runs[i].start_s;
    coflow::CoflowSpec c;
    c.id = coflow::CoflowId{.external = static_cast<std::int64_t>(i + 1), .internal = 0};
    c.flows.push_back(coflow::FlowSpec{.src = 0, .dst = 1,
                                       .bytes = static_cast<util::Bytes>(runs[i].bytes)});
    job.coflows.push_back(std::move(c));
    workload.jobs.push_back(std::move(job));
  }
  sched::DClasConfig dclas;
  dclas.num_queues = kQueues;
  dclas.first_threshold = kFirstThreshold;
  dclas.sync_interval = kDelta;
  sched::DClasScheduler scheduler(dclas);
  const sim::SimResult result =
      sim::runSimulation(workload, fabric::FabricConfig{2, kUplink}, scheduler);
  double total = 0;
  for (const auto& c : result.coflows) total += c.cct();
  return result.coflows.empty() ? 0.0 : total / static_cast<double>(result.coflows.size());
}

std::vector<double> slowdowns(const Phase& phase) {
  std::vector<double> out;
  for (const CoflowRun& c : phase.coflows) {
    out.push_back(c.cct_s / (static_cast<double>(c.bytes) / kUplink));
  }
  return out;
}

std::vector<double> ccts(const Phase& phase) {
  std::vector<double> out;
  for (const CoflowRun& c : phase.coflows) out.push_back(c.cct_s);
  return out;
}

}  // namespace

Result runLoopbackShuffle(const Options& o) {
  ShuffleShape shape;
  if (o.tiny) {
    shape.big_bytes = 2 * 1024 * 1024;
    shape.smalls_per_round = 2;
  }
  Result r;
  std::vector<double> setup_s;
  std::unique_ptr<Plant> plant;
  for (std::size_t i = 0; i < shape.setups; ++i) {
    plant.reset();
    const auto start = Clock::now();
    plant = startPlant();
    setup_s.push_back(secondsSince(start));
  }

  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase untraced = runPhase(*plant, shape, phase_s, o.seed, false, r);
  const std::vector<double> real = ccts(untraced);
  const double fluid = fluidAvgCct(untraced.coflows);
  const double real_avg = mean(real);
  const double fluid_err = fluid > 0 ? std::abs(real_avg - fluid) / fluid : 0.0;
  r.check(fluid > 0, "fluid model finished every coflow");

  const double rounds = static_cast<double>(std::max<std::uint64_t>(untraced.rounds, 1));
  r.end_to_end["setup_s"] = {percentile(setup_s, 50), "s"};
  // Throttle-bound: a shuffle round's wall time, not CPU, is the host cost
  // a user sees.
  r.end_to_end["host_ms"] = {percentile(untraced.round_s, 50) * 1e3, "ms"};
  // Slowdown: real CCT over the coflow's time alone on the uplink.
  r.end_to_end["slowdown_avg"] = {mean(slowdowns(untraced)), "ratio"};
  r.end_to_end["slowdown_p95"] = {percentile(slowdowns(untraced), 95), "ratio"};
  r.detail["real_avg_cct_ms"] = {real_avg * 1e3, "ms"};
  r.detail["fluid_avg_cct_ms"] = {fluid * 1e3, "ms"};
  r.detail["fluid_err"] = {fluid_err, "ratio"};
  r.detail["p95_cct_ms"] = {percentile(real, 95) * 1e3, "ms"};
  r.detail["control_cpu_ms_per_round"] = {untraced.cpu_s * 1e3 / rounds, "ms"};
  r.detail["coflows"] = {static_cast<double>(real.size()), "count"};

  if (!o.trace) return r;

  Tracer& tracer = Tracer::instance();
  tracer.reset();
  tracer.setEnabled(true);
  const Phase traced = runPhase(*plant, shape, phase_s, o.seed, true, r);
  tracer.setEnabled(false);
  r.check(tracer.idle() && tracer.selfSumNs() == tracer.rootTotalNs(),
          "layer self times sum to their enclosing shuffle.round spans");
  r.check(!traced.demote_lag_ms.empty() && !traced.global_demote_lag_ms.empty(),
          "big coflow demotion observed at the daemon and the coordinator");
  auto meanMs = [&](const char* name) {
    const Tracer::Aggregate* agg = tracer.find(name);
    return agg != nullptr ? agg->meanMicros() * 1e-3 : 0.0;
  };
  auto& L = r.per_layer;
  L["client.register_ms"] = {meanMs("client.register"), "ms"};
  L["client.unregister_ms"] = {meanMs("client.unregister"), "ms"};
  L["daemon.demote_lag_ms"] = {mean(traced.demote_lag_ms), "ms"};
  L["coord.demote_lag_ms"] = {mean(traced.global_demote_lag_ms), "ms"};
  L["daemon.epochs_seen"] = {static_cast<double>(traced.daemon_epochs), "count"};
  const double traced_avg = mean(ccts(traced)) * 1e3;
  L["trace.overhead_ms"] = {traced_avg - real_avg * 1e3, "ms"};
  L["trace.overhead_ratio"] = {(traced_avg - real_avg * 1e3) / (real_avg * 1e3), "ratio"};
  L["trace.spans"] = {static_cast<double>(tracer.spanCount()), "count"};
  return r;
}

}  // namespace perfbench
