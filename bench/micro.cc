// Microbenchmarks (google-benchmark): hot paths of the library —
// water-filling allocation, one D-CLAS reschedule, wire codec, the
// delta-coded coordination path, and the end-to-end simulator event rate.
#include <benchmark/benchmark.h>

#include <sys/socket.h>

#include <cmath>

#include "bench/common.h"
#include "fabric/maxmin.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "runtime/schedule_state.h"
#include "sched/dclas.h"

using namespace aalo;

namespace {

void BM_MaxMinAllocate(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  const int flows = static_cast<int>(state.range(1));
  fabric::Fabric fabric(fabric::FabricConfig{ports, util::kGbps});
  util::Rng rng(7);
  std::vector<fabric::Demand> demands;
  for (int i = 0; i < flows; ++i) {
    demands.push_back(fabric::Demand{
        static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
        static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)), 1.0,
        fabric::kUncapped});
  }
  for (auto _ : state) {
    fabric::ResidualCapacity residual(fabric);
    benchmark::DoNotOptimize(fabric::maxMinAllocate(demands, residual));
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinAllocate)->Args({40, 100})->Args({40, 1000})->Args({150, 1000});

// One full D-CLAS allocation round over a standing mix of active coflows.
void BM_DClasReschedule(benchmark::State& state) {
  const auto num_coflows = static_cast<std::size_t>(state.range(0));
  const int ports = 40;

  // Hand-build a frozen mid-simulation view.
  std::vector<sim::CoflowState> coflows;
  sim::FlowArena flows;
  std::vector<std::size_t> active;
  util::Rng rng(13);
  for (std::size_t c = 0; c < num_coflows; ++c) {
    sim::CoflowState cs;
    cs.id = {static_cast<coflow::JobId>(c), 0};
    cs.released = true;
    cs.sent = rng.uniform(0, 1e9);
    const int width = static_cast<int>(rng.uniformInt(1, 20));
    for (int f = 0; f < width; ++f) {
      sim::FlowState fs;
      fs.id = static_cast<coflow::FlowId>(flows.size());
      fs.coflow_index = c;
      fs.src = static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1));
      fs.dst = static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1));
      fs.size = 1e9;
      fs.sent = rng.uniform(0, 5e8);
      fs.started = true;
      cs.flow_indices.push_back(flows.push(fs));
      active.push_back(cs.flow_indices.back());
    }
    coflows.push_back(std::move(cs));
  }
  fabric::Fabric fabric(fabric::FabricConfig{ports, util::kGbps});
  sim::ActiveCoflowIndex index;
  index.rebuild(flows, active);
  sim::SimView view;
  view.now = 1.0;
  view.fabric = &fabric;
  view.coflows = &coflows;
  view.flows = &flows;
  view.active_flows = &active;
  view.active_index = &index;

  sched::DClasScheduler dclas{sched::DClasConfig{}};
  dclas.reset(fabric);
  std::vector<util::Rate> rates(flows.size(), 0.0);
  for (auto _ : state) {
    std::fill(rates.begin(), rates.end(), 0.0);
    dclas.allocate(view, rates);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(active.size()));
}
BENCHMARK(BM_DClasReschedule)->Arg(10)->Arg(100)->Arg(500)->Arg(1000);

void BM_ProtocolEncodeDecode(benchmark::State& state) {
  net::Message update;
  update.type = net::MessageType::kScheduleUpdate;
  update.epoch = 42;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    update.schedule.push_back(net::ScheduleEntry{{i, 0}, 1e6 * i, i % 10});
  }
  for (auto _ : state) {
    net::Buffer buffer;
    net::encodeMessage(update, buffer);
    benchmark::DoNotOptimize(net::decodeMessage(buffer));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProtocolEncodeDecode)->Arg(100)->Arg(1000);

// Steady-state delta frame: a handful of moved coflows plus a few
// removals — what the coordinator actually encodes every Δ in delta mode
// (compare BM_ProtocolEncodeDecode/100, the full-snapshot cost).
void BM_EncodeScheduleDelta(benchmark::State& state) {
  net::Message delta;
  delta.type = net::MessageType::kScheduleDelta;
  delta.epoch = 43;
  delta.base_epoch = 42;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    delta.schedule.push_back(net::ScheduleEntry{{i, 0}, 1e6 * i, i % 10, true});
  }
  for (int i = 0; i < 3; ++i) delta.removals.push_back({1000 + i, 0});
  net::Buffer buffer;
  for (auto _ : state) {
    buffer.clear();
    net::encodeMessage(delta, buffer);
    benchmark::DoNotOptimize(buffer.peek());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeScheduleDelta)->Arg(5)->Arg(100);

// One report frame landing in the incrementally maintained ScheduleState,
// then the round's delta drained — the coordinator's per-report hot path,
// vs. the legacy rebuild which re-sorted all registered coflows every
// round. Args: {coflows, daemons}. Each coflow has one reporting daemon,
// as on coord_10k's multiplexed connections. A frame re-reports 20
// coflows in a fixed shuffled order and one entry in 14 has grown by
// 4 MB (~7% changed, like coord_10k), so most entries take the
// unchanged-size exit. 100 and 1000 coflows fit in cache; 100000 over 4
// daemons is coord_10k's scale, where every entry's lookup misses.
void BM_ReportApply(benchmark::State& state) {
  const std::int64_t num_coflows = state.range(0);
  const auto daemons = static_cast<std::uint64_t>(state.range(1));
  constexpr int kFrame = 20;
  const sched::DClasConfig dclas;
  runtime::ScheduleState sstate(dclas.thresholds(), 0);
  util::Rng rng(23);
  std::vector<coflow::CoflowId> ids;
  std::vector<double> sizes;
  std::vector<std::size_t> order;
  for (std::int64_t c = 0; c < num_coflows; ++c) {
    const coflow::CoflowId id{c, 0};
    sstate.registerCoflow(id);
    ids.push_back(id);
    sizes.push_back(rng.uniform(0, 100) * util::kMB);
    sstate.applySize(static_cast<std::uint64_t>(c) % daemons, id, sizes.back());
    order.push_back(static_cast<std::size_t>(c));
  }
  rng.shuffle(order);
  std::vector<net::ScheduleEntry> entries;
  std::vector<coflow::CoflowId> removals;
  sstate.buildDelta(entries, removals);  // Drain the warm-up churn.
  std::size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < kFrame; ++i) {
      const std::size_t pick = order[next % order.size()];
      if (++next % 14 == 0) sizes[pick] += 4 * util::kMB;
      sstate.applySize(pick % daemons, ids[pick], sizes[pick]);
    }
    sstate.buildDelta(entries, removals);
    benchmark::DoNotOptimize(entries.data());
  }
  state.SetItemsProcessed(state.iterations() * kFrame);
}
BENCHMARK(BM_ReportApply)->Args({100, 1})->Args({1000, 1})->Args({100000, 4});

// The full schedule a snapshot frame carries, at coord_10k's scale: sizes
// log-uniform from 1 MB to 10 GB, so the coflows spread over the queues.
void BM_SnapshotEntries(benchmark::State& state) {
  const std::int64_t num_coflows = state.range(0);
  const sched::DClasConfig dclas;
  runtime::ScheduleState sstate(dclas.thresholds(), 0);
  util::Rng rng(29);
  for (std::int64_t c = 0; c < num_coflows; ++c) {
    const coflow::CoflowId id{c, 0};
    sstate.registerCoflow(id);
    sstate.applySize(static_cast<std::uint64_t>(c % 4), id,
                     std::exp(rng.uniform(std::log(1e6), std::log(1e10))));
  }
  std::vector<net::ScheduleEntry> out;
  for (auto _ : state) {
    sstate.snapshotEntries(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * num_coflows);
}
BENCHMARK(BM_SnapshotEntries)->Arg(100000)->Unit(benchmark::kMicrosecond);

// Encode-once shared-buffer fan-out: one 100-coflow schedule frame sent
// to N peers over loopback socketpairs. The payload bytes are queued by
// reference on every connection (zero copies), so per-peer cost is the
// frame header plus the writev.
void BM_BroadcastFanout(benchmark::State& state) {
  const std::size_t peers = static_cast<std::size_t>(state.range(0));
  net::EventLoop loop;
  std::vector<std::unique_ptr<net::Connection>> senders;
  std::vector<std::unique_ptr<net::Connection>> receivers;
  std::size_t received = 0;
  for (std::size_t p = 0; p < peers; ++p) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) != 0) {
      state.SkipWithError("socketpair failed");
      return;
    }
    senders.push_back(std::make_unique<net::Connection>(
        loop, net::Fd(fds[0]), [](net::Buffer&) {},
        net::Connection::CloseHandler{}));
    receivers.push_back(std::make_unique<net::Connection>(
        loop, net::Fd(fds[1]), [&received](net::Buffer&) { ++received; },
        net::Connection::CloseHandler{}));
  }
  net::Message update;
  update.type = net::MessageType::kScheduleUpdate;
  update.epoch = 1;
  for (int i = 0; i < 100; ++i) {
    update.schedule.push_back(net::ScheduleEntry{{i, 0}, 1e6 * i, i % 10});
  }
  auto frame = std::make_shared<net::Buffer>();
  net::encodeMessage(update, *frame);
  const std::shared_ptr<const net::Buffer> shared = frame;
  for (auto _ : state) {
    received = 0;
    for (auto& sender : senders) sender->sendFrame(shared);
    while (received < peers) loop.runOnce(std::chrono::milliseconds(1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_BroadcastFanout)->Arg(10)->Arg(100)->Arg(1000);

void BM_SimulatorEndToEnd(benchmark::State& state) {
  const auto wl = bench::standardWorkload(static_cast<std::size_t>(state.range(0)),
                                          40, 99);
  for (auto _ : state) {
    auto aalo = sched::makeScheduler("aalo", wl);
    const auto result =
        sim::runSimulation(wl, bench::standardFabric(), *aalo);
    benchmark::DoNotOptimize(result.makespan);
    state.counters["rounds"] = static_cast<double>(result.allocation_rounds);
    state.counters["allocs"] = static_cast<double>(result.allocate_calls);
    state.counters["events"] = static_cast<double>(result.events_processed);
    state.counters["rekeys"] = static_cast<double>(result.heap_rekeys);
  }
}
BENCHMARK(BM_SimulatorEndToEnd)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

// Instrumented A/B for BM_SimulatorEndToEnd: identical run with
// SimOptions::metrics set, so every result is folded into a live
// obs::Registry. The acceptance bar for the observability layer is <2%
// overhead versus the stub (metrics == nullptr) variant above.
void BM_SimulatorEndToEndMetrics(benchmark::State& state) {
  const auto wl = bench::standardWorkload(static_cast<std::size_t>(state.range(0)),
                                          40, 99);
  obs::Registry registry;
  sim::SimOptions opts;
  opts.metrics = &registry;
  for (auto _ : state) {
    auto aalo = sched::makeScheduler("aalo", wl);
    const auto result =
        sim::runSimulation(wl, bench::standardFabric(), *aalo, opts);
    benchmark::DoNotOptimize(result.makespan);
    state.counters["rounds"] = static_cast<double>(result.allocation_rounds);
  }
}
BENCHMARK(BM_SimulatorEndToEndMetrics)
    ->Arg(50)
    ->Arg(150)
    ->Unit(benchmark::kMillisecond);

// Raw cost of the metrics primitives: the per-increment price paid at
// every instrumented site (counter add, histogram observe, gauge set) and
// the cold-path exposition renders. Counter/histogram numbers are the
// hot-path contract — they must stay in the few-nanosecond range for the
// <2% end-to-end bound to hold.
void BM_MetricsOverhead(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("bench_counter_total", "bench");
  obs::Gauge& gauge = registry.gauge("bench_gauge", "bench");
  obs::LatencyHistogram& histogram =
      registry.histogram("bench_seconds", "bench", obs::HistogramOptions{});
  const int mode = static_cast<int>(state.range(0));
  double x = 1e-6;
  for (auto _ : state) {
    switch (mode) {
      case 0:
        counter.fetch_add(1);
        break;
      case 1:
        histogram.observe(x);
        x = x * 1.7 + 1e-9;
        if (x > 1.0) x = 1e-6;
        break;
      case 2:
        gauge.set(x);
        x += 1.0;
        break;
      case 3: {
        const std::string text = registry.renderPrometheus();
        benchmark::DoNotOptimize(text.data());
        break;
      }
      default: {
        const std::string json = registry.renderJson();
        benchmark::DoNotOptimize(json.data());
        break;
      }
    }
  }
  static const char* const kModes[] = {"counter_add", "histogram_observe",
                                       "gauge_set", "render_prometheus",
                                       "render_json"};
  state.SetLabel(kModes[mode]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverhead)->DenseRange(0, 4);

// The engine's integration sweep in isolation: pass 1 is the vectorizable
// min/add over the slot-packed SoA columns, pass 2 scatters the deltas
// into per-coflow totals — byte-for-byte the loop in executeIncremental.
// Sizes are set far above what the sweep can drain during the bench, so
// the min never clamps and every iteration does identical work.
void BM_SoAIntegrate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(31);
  std::vector<util::Rate> rate_col(n);
  std::vector<util::Bytes> size_col(n), sent_col(n, 0.0), delta_col(n);
  std::vector<std::uint32_t> slot_coflow(n);
  std::vector<util::Bytes> coflow_sent(n / 16 + 1, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    rate_col[k] = rng.uniform(0, util::kGbps / 8);
    size_col[k] = 1e18;
    slot_coflow[k] = static_cast<std::uint32_t>(k / 16);
  }
  const util::Seconds dt = 1e-3;
  for (auto _ : state) {
    const util::Rate* __restrict rate = rate_col.data();
    const util::Bytes* __restrict size = size_col.data();
    util::Bytes* __restrict sent = sent_col.data();
    util::Bytes* __restrict delta = delta_col.data();
    for (std::size_t k = 0; k < n; ++k) {
      const util::Bytes d = std::min(rate[k] * dt, size[k] - sent[k]);
      sent[k] += d;
      delta[k] = d;
    }
    for (std::size_t k = 0; k < n; ++k) {
      coflow_sent[slot_coflow[k]] += delta[k];
    }
    benchmark::DoNotOptimize(sent_col.data());
    benchmark::DoNotOptimize(coflow_sent.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SoAIntegrate)->Arg(64)->Arg(512)->Arg(4096);

// Figure 8-style trace replay: the Facebook-like mix under Aalo with a
// non-zero coordination interval Δ (arg = Δ in milliseconds), plus
// per-flow fair sharing as the prior-free baseline (arg = 0). With
// Δ > 0 most sync-boundary wake-ups change no queue membership, so this
// bench exercises — and its counters record — the allocation-reuse path
// (reused > 0 is part of the PR acceptance for the incremental engine).
void BM_TraceReplay(benchmark::State& state) {
  const auto wl = bench::standardWorkload(60, 40, 99);
  const util::Seconds delta = static_cast<double>(state.range(0)) * 1e-3;
  for (auto _ : state) {
    auto scheduler = sched::makeScheduler(delta > 0 ? "aalo" : "fair", wl, delta);
    const auto result = sim::runSimulation(wl, bench::standardFabric(), *scheduler);
    benchmark::DoNotOptimize(result.makespan);
    state.counters["rounds"] = static_cast<double>(result.allocation_rounds);
    state.counters["allocs"] = static_cast<double>(result.allocate_calls);
    state.counters["reused"] = static_cast<double>(result.reused_allocations);
  }
}
BENCHMARK(BM_TraceReplay)->Arg(0)->Arg(100)->Unit(benchmark::kMillisecond);

// Scale stressor for the incremental engine: a 100k-coflow Facebook-shaped
// trace (same generator as tools/aalo_tracegen --kind fb --coflows
// 100000) replayed end to end under Aalo with Δ = 100 ms. Width is
// capped at 6x6 senders/receivers — the fb shape keeps its size and
// length distributions but the tail coflows stop carrying 300+ flows
// each, which bounds the run at roughly one allocation per flow arrival
// and one per completion. (The caps must keep sender x receiver above
// the generator's wide-coflow width floor of 51, so 8 x 8 is the
// tightest square choice.) One iteration per run: this is a
// tens-of-seconds soak, recorded for trend, not for tight medians.
void BM_TraceReplayLarge(benchmark::State& state) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = static_cast<std::size_t>(state.range(0)) * 1000;
  cfg.num_ports = 40;
  cfg.seed = 99;
  cfg.mean_interarrival = 2.0;
  cfg.sender_cap = 8;
  cfg.receiver_cap = 8;
  const auto wl = workload::generateFacebookWorkload(cfg);
  sim::SimOptions opts;
  opts.max_rounds = 40'000'000;
  for (auto _ : state) {
    auto aalo = sched::makeScheduler("aalo", wl, 0.5);
    const auto result =
        sim::runSimulation(wl, bench::standardFabric(), *aalo, opts);
    benchmark::DoNotOptimize(result.makespan);
    state.counters["rounds"] = static_cast<double>(result.allocation_rounds);
    state.counters["allocs"] = static_cast<double>(result.allocate_calls);
    state.counters["events"] = static_cast<double>(result.events_processed);
    state.counters["rekeys"] = static_cast<double>(result.heap_rekeys);
  }
}
BENCHMARK(BM_TraceReplayLarge)->Arg(10)->Arg(100)->Iterations(1)->Unit(benchmark::kSecond);

// A 6-job scheduler sweep through sim::runBatch at varying thread counts.
// On a multi-core host throughput should scale near-linearly with the
// argument; tools/bench_record.sh captures this alongside the hot-path
// numbers so the perf trajectory covers both single-run and batch cost.
void BM_BatchRunnerSweep(benchmark::State& state) {
  const auto wl = bench::standardWorkload(30, 40, 77);
  const auto fc = bench::standardFabric();
  const int threads = static_cast<int>(state.range(0));
  std::vector<sim::BatchJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(bench::job(wl, fc, "aalo"));
    jobs.push_back(bench::job(wl, fc, "fair"));
  }
  sim::BatchOptions opts;
  opts.num_threads = threads;
  for (auto _ : state) {
    const auto results = sim::runBatch(jobs, opts);
    benchmark::DoNotOptimize(results.front().makespan);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_BatchRunnerSweep)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
