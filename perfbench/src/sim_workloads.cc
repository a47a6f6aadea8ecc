// fb_dense and fb_100k: Facebook-shaped trace replays under D-CLAS.
//
// Set-up generates each workload, writes it as a trace and parses it back
// (workload::writeTrace / readTrace); the replayed workload is the parsed
// one. The measured loop replays with sim::Simulator until the time is
// up. A traced run replays through TracingScheduler, a forwarding
// decorator that opens a span around every scheduler callback, and times
// the water-fill through the link-time wrap of fabric::maxMinAllocate
// below.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <queue>
#include <random>
#include <sstream>
#include <span>

#include "bench.h"
#include "fabric/maxmin.h"
#include "sched/dclas.h"
#include "sched/lp_bound.h"
#include "sim/simulator.h"
#include "workload/facebook.h"
#include "workload/trace_io.h"

using namespace aalo;

namespace perfbench {
namespace {

struct SimSpans {
  int run = Tracer::instance().intern("sim.run");
  int allocate = Tracer::instance().intern("sched.allocate");
  int epoch = Tracer::instance().intern("sched.epoch");
  int hooks = Tracer::instance().intern("sched.hooks");
  int wakeup = Tracer::instance().intern("sched.wakeup");
  int fill = Tracer::instance().intern("fabric.fill");
};

const SimSpans& simSpans() {
  static const SimSpans spans;
  return spans;
}

/// Request id of the sim spans: replay index in the high bits, the
/// allocation round (allocate() calls so far) in the low bits.
std::uint64_t g_request = 0;
std::uint64_t g_fill_demands = 0;
std::uint64_t g_hook_calls = 0;

/// Forwards every call to the wrapped scheduler inside a span.
class TracingScheduler final : public sim::Scheduler {
 public:
  explicit TracingScheduler(sim::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void reset(const fabric::Fabric& fabric) override {
    Span span(simSpans().hooks, g_request);
    ++g_hook_calls;
    inner_.reset(fabric);
  }
  void onCoflowReleased(const sim::SimView& view, std::size_t coflow) override {
    Span span(simSpans().hooks, g_request);
    ++g_hook_calls;
    inner_.onCoflowReleased(view, coflow);
  }
  void onCoflowFinished(const sim::SimView& view, std::size_t coflow) override {
    Span span(simSpans().hooks, g_request);
    ++g_hook_calls;
    inner_.onCoflowFinished(view, coflow);
  }
  void onFlowStarted(const sim::SimView& view, std::size_t flow) override {
    Span span(simSpans().hooks, g_request);
    ++g_hook_calls;
    inner_.onFlowStarted(view, flow);
  }
  void onFlowCompleted(const sim::SimView& view, std::size_t flow) override {
    Span span(simSpans().hooks, g_request);
    ++g_hook_calls;
    inner_.onFlowCompleted(view, flow);
  }
  std::uint64_t scheduleEpoch(const sim::SimView& view) override {
    Span span(simSpans().epoch, g_request);
    return inner_.scheduleEpoch(view);
  }
  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override {
    ++g_request;
    Span span(simSpans().allocate, g_request);
    inner_.allocate(view, rates);
  }
  std::size_t rejectedCoflows() const override { return inner_.rejectedCoflows(); }
  util::Seconds nextWakeup(const sim::SimView& view) override {
    Span span(simSpans().wakeup, g_request);
    return inner_.nextWakeup(view);
  }

 private:
  sim::Scheduler& inner_;
};

}  // namespace
}  // namespace perfbench

// --- link-time wrap of fabric::maxMinAllocate (scratch overload) ----------
// The linker sends every cross-object call to the symbol here
// (-Wl,--wrap, see CMakeLists.txt). __real_ is weak so the benchmark still
// links if the overload is renamed; its calls then go unwrapped and the
// fabric.* ledger rows read 0.
#define PERFBENCH_CAT(a, b) a##b
#define PERFBENCH_XCAT(a, b) PERFBENCH_CAT(a, b)
#define PERFBENCH_REAL PERFBENCH_XCAT(__real_, PERFBENCH_MAXMIN_SYMBOL)
#define PERFBENCH_WRAP PERFBENCH_XCAT(__wrap_, PERFBENCH_MAXMIN_SYMBOL)

extern "C" {
__attribute__((weak)) const std::vector<aalo::util::Rate>& PERFBENCH_REAL(
    std::span<const aalo::fabric::Demand> demands, aalo::fabric::ResidualCapacity& residual,
    aalo::fabric::MaxMinScratch& scratch);

const std::vector<aalo::util::Rate>& PERFBENCH_WRAP(
    std::span<const aalo::fabric::Demand> demands, aalo::fabric::ResidualCapacity& residual,
    aalo::fabric::MaxMinScratch& scratch) {
  if (!perfbench::Tracer::instance().enabled()) {
    return PERFBENCH_REAL(demands, residual, scratch);
  }
  perfbench::Span span(perfbench::simSpans().fill, perfbench::g_request);
  perfbench::g_fill_demands += demands.size();
  return PERFBENCH_REAL(demands, residual, scratch);
}
}

// Keeps maxmin.o in the link, so the weak __real_ above resolves.
__attribute__((used)) static const auto kKeepMaxmin = &aalo::fabric::maxMinAllocateReference;

namespace perfbench {
namespace {

// Host-speed reference. On a shared virtual host the same replay can run
// 30% faster or slower within a minute as other tenants come and go. Every
// replay is paired with this fixed kernel, which uses none of the library
// and, like the engine, mixes binary-heap churn with strided sweeps over a
// few MB; sim host_ms is the replay time scaled to a host on which the
// kernel takes kReferenceSeconds.
constexpr double kReferenceSeconds = 0.030;
double g_reference_sink = 0;

double referenceKernel() {
  const auto start = Clock::now();
  std::mt19937_64 rng(42);
  std::priority_queue<double> heap;
  std::vector<double> values(1 << 19);
  for (double& v : values) v = static_cast<double>(rng() % 1'000'000) + 1;
  double acc = 0;
  for (std::size_t round = 0; round < 20; ++round) {
    for (int i = 0; i < 5000; ++i) heap.push(static_cast<double>(rng() % 1'000'000));
    for (int i = 0; i < 5000; ++i) {
      acc += heap.top();
      heap.pop();
    }
    double level = 1e300;
    for (std::size_t i = round; i < values.size(); i += 3) {
      level = std::min(level, values[i] / static_cast<double>(1 + i % 7));
    }
    acc += level;
  }
  g_reference_sink += acc;
  return secondsSince(start);
}

struct SimShape {
  /// Distinct workloads generated per run (each replayed in turn); CCT
  /// figures pool all of them.
  std::size_t workloads = 1;
  /// Set-ups per run (cycling over the workloads); setup_s is their median.
  std::size_t setups = 3;
  workload::FacebookConfig facebook;
  util::Seconds sync_interval = 0;
  std::size_t max_rounds = 20'000'000;
};

struct Prepared {
  coflow::Workload workload;
  sched::LpBoundResult bound;
  std::size_t coflows = 0;
  std::size_t flows = 0;
};

/// Layer totals over the traced replays of one run.
struct TracedTotals {
  std::size_t replays = 0;
  double rounds = 0, allocate_calls = 0, reused = 0, events = 0, rekeys = 0,
         rebuilds = 0;
};

void addSimLedger(Result& r, const TracedTotals& t) {
  const Tracer& tracer = Tracer::instance();
  const SimSpans& s = simSpans();
  const double n = static_cast<double>(std::max<std::size_t>(t.replays, 1));
  auto per = [&](double v) { return v / n; };
  auto& L = r.per_layer;
  L["sim.self_s"] = {per(tracer.aggregate(s.run).selfSeconds()), "s"};
  L["sim.rounds"] = {per(t.rounds), "count"};
  L["sim.allocate_calls"] = {per(t.allocate_calls), "count"};
  L["sim.reused_allocations"] = {per(t.reused), "count"};
  L["sim.reuse_ratio"] = {t.rounds > 0 ? t.reused / t.rounds : 0.0, "ratio"};
  L["sim.events"] = {per(t.events), "count"};
  L["sim.heap_rekeys"] = {per(t.rekeys), "count"};
  L["sim.rekeys_per_install"] = {t.rebuilds > 0 ? t.rekeys / t.rebuilds : 0.0, "ratio"};
  L["sim.heap_rebuilds"] = {per(t.rebuilds), "count"};

  const auto& alloc = tracer.aggregate(s.allocate);
  const auto& fill = tracer.aggregate(s.fill);
  L["sched.allocate_s"] = {per(alloc.totalSeconds()), "s"};
  L["sched.allocate_us_p50"] = {alloc.percentileMicros(50), "us"};
  L["sched.allocate_us_p99"] = {alloc.percentileMicros(99), "us"};
  L["sched.order_s"] = {per(alloc.selfSeconds()), "s"};
  L["sched.epoch_s"] = {per(tracer.aggregate(s.epoch).totalSeconds()), "s"};
  L["sched.hooks_s"] = {per(tracer.aggregate(s.hooks).totalSeconds()), "s"};
  L["sched.hook_calls"] = {per(static_cast<double>(g_hook_calls)), "count"};
  L["sched.wakeup_s"] = {per(tracer.aggregate(s.wakeup).totalSeconds()), "s"};
  L["fabric.fill_s"] = {per(fill.totalSeconds()), "s"};
  L["fabric.fill_calls"] = {per(static_cast<double>(fill.count)), "count"};
  L["fabric.demands_per_fill"] = {
      fill.count > 0 ? static_cast<double>(g_fill_demands) / static_cast<double>(fill.count)
                     : 0.0,
      "count"};
  L["fabric.fills_per_allocate"] = {
      alloc.count > 0 ? static_cast<double>(fill.count) / static_cast<double>(alloc.count)
                      : 0.0,
      "ratio"};
}

Result runSim(const Options& o, const SimShape& shape) {
  Result r;
  const fabric::FabricConfig fabric{shape.facebook.num_ports, util::kGbps};

  // --- set-up: generate -> writeTrace -> readTrace ------------------------
  std::vector<Prepared> prepared(shape.workloads);
  std::vector<std::string> traces(shape.workloads);
  std::vector<double> setup_s, generate_s, write_s, read_s;
  for (std::size_t i = 0; i < std::max(shape.setups, shape.workloads); ++i) {
    const std::size_t k = i % shape.workloads;
    workload::FacebookConfig cfg = shape.facebook;
    cfg.seed = splitmix64(o.seed * 1000 + k);
    const auto t0 = Clock::now();
    const coflow::Workload generated = workload::generateFacebookWorkload(cfg);
    const auto t1 = Clock::now();
    std::ostringstream written;
    workload::writeTrace(written, generated);
    std::string text = written.str();
    const auto t2 = Clock::now();
    std::istringstream in(text);
    coflow::Workload parsed = workload::readTrace(in);
    const auto t3 = Clock::now();
    generate_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    write_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    read_s.push_back(std::chrono::duration<double>(t3 - t2).count());
    setup_s.push_back(std::chrono::duration<double>(t3 - t0).count());

    std::ostringstream rewritten;
    workload::writeTrace(rewritten, parsed);
    r.check(rewritten.str() == text, "parsed trace re-serialises byte-identically");
    if (i < shape.workloads) {
      traces[k] = std::move(text);
      prepared[k].workload = std::move(parsed);
    } else {
      r.check(text == traces[k], "same seed generates the same trace");
    }
  }
  for (Prepared& p : prepared) {
    for (const auto& job : p.workload.jobs) {
      p.coflows += job.coflows.size();
      for (const auto& c : job.coflows) p.flows += c.flows.size();
    }
    p.bound = sched::computeCctLowerBound(p.workload, fabric);
  }

  sched::DClasConfig dclas;  // Paper defaults: K=10, E=10, Q1=10 MB.
  dclas.sync_interval = shape.sync_interval;
  sim::SimOptions sim_options;
  sim_options.max_rounds = shape.max_rounds;

  // First replay of each workload: the reference CCTs every later replay
  // must reproduce bit for bit.
  std::vector<std::vector<double>> reference(shape.workloads);
  std::vector<sim::SimResult> first(shape.workloads);
  std::size_t replay_index = 0;

  auto replay = [&](std::size_t k, bool traced, TracedTotals* totals) {
    sched::DClasScheduler scheduler(dclas);
    TracingScheduler tracing(scheduler);
    sim::Scheduler& used = traced ? static_cast<sim::Scheduler&>(tracing) : scheduler;
    sim::Simulator simulator(fabric, used, sim_options);
    g_request = (++replay_index) << 32;
    const auto start = Clock::now();
    sim::SimResult result;
    {
      Span span(simSpans().run, g_request);
      result = simulator.run(prepared[k].workload);
    }
    const double wall = secondsSince(start);

    std::vector<double> ccts;
    ccts.reserve(result.coflows.size());
    for (const auto& c : result.coflows) ccts.push_back(c.cct());
    if (reference[k].empty()) {
      std::size_t bad = 0;
      for (const double c : ccts) bad += std::isfinite(c) && c >= 0 ? 0 : 1;
      r.checkMany(ccts.size(), bad, "coflow finished with a finite CCT");
      r.check(ccts.size() == prepared[k].coflows, "every coflow has a record");
      r.check(sched::boundRatio(result.totalCct(), prepared[k].bound) >= 1 - 1e-6,
              "total CCT >= LP lower bound");
      reference[k] = ccts;
      first[k] = result;
    } else {
      r.check(ccts.size() == reference[k].size() &&
                  std::memcmp(ccts.data(), reference[k].data(),
                              ccts.size() * sizeof(double)) == 0,
              "replay reproduces CCTs bit for bit");
    }
    if (totals != nullptr) {
      ++totals->replays;
      totals->rounds += static_cast<double>(result.allocation_rounds);
      totals->allocate_calls += static_cast<double>(result.allocate_calls);
      totals->reused += static_cast<double>(result.reused_allocations);
      totals->events += static_cast<double>(result.events_processed);
      totals->rekeys += static_cast<double>(result.heap_rekeys);
      totals->rebuilds += static_cast<double>(result.heap_rebuilds);
    }
    return wall;
  };

  // --- measured loop (untraced) ----------------------------------------------
  // Every workload is replayed at least once and up to four of them twice,
  // so each run checks that replays are deterministic.
  const double phase = o.trace ? o.seconds / 2 : o.seconds;
  const std::size_t min_replays = shape.workloads + std::min<std::size_t>(shape.workloads, 4);
  std::vector<double> untraced, untraced_scaled, reference_s;
  const auto untraced_start = Clock::now();
  for (std::size_t i = 0; i < min_replays || secondsSince(untraced_start) < phase; ++i) {
    untraced.push_back(replay(i % shape.workloads, false, nullptr));
    reference_s.push_back(referenceKernel());
    untraced_scaled.push_back(untraced.back() * kReferenceSeconds / reference_s.back());
  }

  // Pooled over every workload's first replay. Slowdown is CCT over the
  // coflow's isolated bottleneck time at full port rate; unlike raw CCT it
  // does not swing with the few huge coflows a seed happens to draw.
  std::vector<double> all_ccts, slowdowns;
  double total_cct = 0, total_bound = 0;
  for (std::size_t k = 0; k < shape.workloads; ++k) {
    all_ccts.insert(all_ccts.end(), reference[k].begin(), reference[k].end());
    std::map<coflow::CoflowId, double> isolated;
    for (const auto& job : prepared[k].workload.jobs) {
      for (const auto& c : job.coflows) {
        isolated[c.id] = workload::isolatedBottleneckSeconds(c, fabric.port_capacity);
      }
    }
    for (const auto& rec : first[k].coflows) {
      const auto it = isolated.find(rec.id);
      if (it != isolated.end() && it->second > 0) slowdowns.push_back(rec.cct() / it->second);
    }
    total_cct += first[k].totalCct();
    total_bound += prepared[k].bound.total_cct;
  }
  const double replay_s = percentile(untraced, 50);
  const double host_ms = percentile(untraced_scaled, 50) * 1e3;
  r.end_to_end["setup_s"] = {percentile(setup_s, 50), "s"};
  r.end_to_end["host_ms"] = {host_ms, "ms"};
  r.end_to_end["slowdown_avg"] = {mean(slowdowns), "ratio"};
  r.end_to_end["slowdown_p95"] = {percentile(slowdowns, 95), "ratio"};
  r.detail["replay_s"] = {replay_s, "s"};
  r.detail["reference_ms"] = {percentile(reference_s, 50) * 1e3, "ms"};
  r.detail["replays"] = {static_cast<double>(untraced.size()), "count"};
  r.detail["avg_cct_s"] = {mean(all_ccts), "s"};
  r.detail["p95_cct_s"] = {percentile(all_ccts, 95), "s"};
  r.detail["slowdown_p50"] = {percentile(slowdowns, 50), "ratio"};
  r.detail["cct_over_lp_bound"] = {total_bound > 0 ? total_cct / total_bound : 1.0, "ratio"};
  r.detail["coflows_per_workload"] = {static_cast<double>(prepared[0].coflows), "count"};

  if (!o.trace) return r;

  // --- traced loop ------------------------------------------------------------
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  g_fill_demands = 0;
  g_hook_calls = 0;
  tracer.setEnabled(true);
  TracedTotals totals;
  std::vector<double> traced_scaled;
  const auto traced_start = Clock::now();
  for (std::size_t i = 0; i < shape.workloads || secondsSince(traced_start) < phase; ++i) {
    const double wall = replay(i % shape.workloads, true, &totals);
    traced_scaled.push_back(wall * kReferenceSeconds / referenceKernel());
  }
  tracer.setEnabled(false);
  r.check(tracer.idle() && tracer.selfSumNs() == tracer.rootTotalNs(),
          "layer self times sum to their enclosing sim.run spans");

  addSimLedger(r, totals);
  double coflows = 0, flows = 0;
  for (const Prepared& p : prepared) {
    coflows += static_cast<double>(p.coflows);
    flows += static_cast<double>(p.flows);
  }
  const double n = static_cast<double>(shape.workloads);
  auto& L = r.per_layer;
  L["workload.generate_s"] = {percentile(generate_s, 50), "s"};
  L["workload.trace_write_s"] = {percentile(write_s, 50), "s"};
  L["workload.trace_read_s"] = {percentile(read_s, 50), "s"};
  L["workload.coflows"] = {coflows / n, "count"};
  L["workload.flows"] = {flows / n, "count"};
  const double traced_ms = percentile(traced_scaled, 50) * 1e3;
  L["trace.overhead_ms"] = {traced_ms - host_ms, "ms"};
  L["trace.overhead_ratio"] = {(traced_ms - host_ms) / host_ms, "ratio"};
  L["trace.spans"] = {static_cast<double>(tracer.spanCount()), "count"};
  return r;
}

}  // namespace

Result runFbDense(const Options& o) {
  // bench::standardWorkload(150, 40, seed): the fb-150 shape.
  SimShape shape;
  shape.workloads = o.tiny ? 2 : 32;
  shape.setups = shape.workloads;
  shape.facebook.num_jobs = o.tiny ? 30 : 150;
  shape.facebook.num_ports = 40;
  shape.facebook.mean_interarrival = 0.25;
  shape.sync_interval = 0;
  return runSim(o, shape);
}

Result runFb100k(const Options& o) {
  // The BM_TraceReplayLarge shape: many narrow coflows, sparse arrivals.
  SimShape shape;
  shape.workloads = 1;
  shape.setups = 3;
  shape.facebook.num_jobs = o.tiny ? 300 : 10'000;
  shape.facebook.num_ports = 40;
  shape.facebook.mean_interarrival = 2.0;
  shape.facebook.sender_cap = 8;
  shape.facebook.receiver_cap = 8;
  shape.sync_interval = 0.5;
  shape.max_rounds = 40'000'000;
  return runSim(o, shape);
}

}  // namespace perfbench
