// Microbenchmarks (google-benchmark) for what perfbench does not measure:
// the water-filling allocator in isolation (the A/B harness for fill
// changes), the per-operation cost of the metrics primitives (the <2%
// instrumentation bar), and sim::runBatch's thread pool. Everything else
// — simulator replay, trace codec, D-CLAS allocation, coordinator state,
// wire codec — is timed end to end and per layer by perfbench/.
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "fabric/maxmin.h"
#include "obs/metrics.h"

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
        static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)), 1.0});
  }
  for (auto _ : state) {
    fabric::ResidualCapacity residual(fabric);
    benchmark::DoNotOptimize(fabric::maxMinAllocate(demands, residual));
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinAllocate)->Args({40, 100})->Args({40, 1000})->Args({150, 1000});

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
