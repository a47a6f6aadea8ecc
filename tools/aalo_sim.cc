// aalo_sim — replay an aalo-trace file under one or more schedulers.
//
//   aalo_sim --trace PATH [--sched LIST] [--ports-per-rack N]
//            [--oversubscription X] [--delta SEC] [--csv PATH] [--jobs N]
//            [--stats] [--metrics-dump PATH] [--deadline-slack X]
//            [--lp-bound] [--lp-check]
//
// PATH may be an aalo-trace file or a public coflow-benchmark trace
// (e.g. FB2010-1Hr-150-0.txt) — the format is auto-detected.
//
// LIST is comma-separated names from the scheduler catalogue
// (sched/registry.h), each at its paper default; the usage text lists
// them (default: "aalo,fair,varys"). --scheduler is an alias for --sched.
// --delta SEC is the coordination interval Δ of "aalo" only.
//
// Every numeric value must be one complete, finite token in range. A
// usage error exits 2; a trace that cannot be read or a scheduler that
// cannot be built exits 1.
//
// --deadline-slack X assigns every coflow a deadline of its isolated
// bottleneck time x (1 + uniform(0, X)) before the runs (for traces cut
// without dl= attributes). When the workload carries deadlines, the
// summary grows deadline-miss and admission-rejection columns.
//
// --lp-bound computes the offline LP-style lower bound on total CCT
// (sched/lp_bound.h) and reports each scheduler's total CCT and its
// distance from the bound (achieved / bound). --lp-check additionally
// exits non-zero if any scheduler lands below the bound — a soundness
// smoke used by scripts/ci.sh.
//
// Prints a per-scheduler summary; with --csv, writes one row per coflow
// per scheduler (scheduler,coflow,job,release,finish,cct,bytes,width).
//
// --jobs N runs the schedulers concurrently on N threads (0 = all
// hardware threads). Each run is independent, and results are reported in
// --sched order, so the output is identical to --jobs 1.
//
// --stats adds the incremental-engine counters to the summary table:
// allocate calls, reused allocations (rounds served from the installed
// rates via the scheduleEpoch handshake), rebuilds (allocation installs),
// events (flow completions) and rekeys (per-flow rate changes installed).
//
// --metrics-dump writes the per-scheduler observability registry
// (Prometheus text, plus JSON at PATH.json) after the batch completes:
// rounds, allocation reuse, installs, CCT histograms, and — for the
// D-CLAS schedulers — per-queue occupancy sampled at every allocation
// round.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compare.h"
#include "cli_number.h"
#include "obs/metrics.h"
#include "sched/dclas.h"
#include "sched/lp_bound.h"
#include "sched/registry.h"
#include "sched/sampling.h"
#include "sim/batch.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/deadlines.h"
#include "workload/trace_io.h"

using namespace aalo;

namespace {

[[noreturn]] void usage() {
  std::string names;
  for (const sched::RegisteredScheduler& entry : sched::registeredSchedulers()) {
    if (!names.empty()) names += ',';
    names += entry.name;
  }
  std::fprintf(stderr,
               "usage: aalo_sim --trace PATH [--sched LIST] [--ports-per-rack N]\n"
               "                [--oversubscription X] [--delta SEC] [--csv PATH]\n"
               "                [--jobs N] [--stats] [--metrics-dump PATH]\n"
               "                [--deadline-slack X] [--lp-bound] [--lp-check]\n"
               "schedulers: %s\n",
               names.c_str());
  std::exit(2);
}

/// Folds a run's per-round queue samples into the registry: an occupancy
/// histogram and a non-empty-round counter per (scheduler, queue).
void bridgeQueueTelemetry(obs::Registry& registry, const std::string& scheduler,
                          const sched::DClasTelemetry& telemetry) {
  if (telemetry.samples().empty()) return;
  const std::size_t k = telemetry.samples().front().occupancy.size();
  for (std::size_t q = 0; q < k; ++q) {
    const std::string labels = "scheduler=\"" + scheduler + "\",queue=\"" +
                               std::to_string(q) + "\"";
    obs::LatencyHistogram& occupancy = registry.histogram(
        "aalo_sim_queue_occupancy",
        "Coflows resident in the D-CLAS queue, sampled every allocation round.",
        obs::HistogramOptions{.first_bound = 1.0, .growth = 2.0, .num_bounds = 12},
        labels);
    obs::Counter& nonempty = registry.counter(
        "aalo_sim_queue_nonempty_rounds_total",
        "Allocation rounds in which the D-CLAS queue held at least one coflow.",
        labels);
    for (const auto& sample : telemetry.samples()) {
      occupancy.observe(static_cast<double>(sample.occupancy[q]));
      if (sample.occupancy[q] > 0) nonempty.fetch_add(1);
    }
  }
}

/// Folds a sampling run's finish-time estimates into the registry:
/// mature/immature finish counters and a relative-error histogram.
void bridgeSamplingTelemetry(obs::Registry& registry, const std::string& scheduler,
                             const sched::SamplingTelemetry& telemetry) {
  if (telemetry.finishes.empty()) return;
  const std::string labels = "scheduler=\"" + scheduler + "\"";
  obs::Counter& mature = registry.counter(
      "aalo_sim_sampling_mature_finishes_total",
      "Coflows whose probe-based size estimate matured before they finished.",
      labels);
  obs::Counter& immature = registry.counter(
      "aalo_sim_sampling_immature_finishes_total",
      "Coflows that finished before all their probes completed (LAS fallback).",
      labels);
  obs::LatencyHistogram& error = registry.histogram(
      "aalo_sim_sampling_estimate_rel_error",
      "Relative error |estimate - actual| / actual of mature size estimates.",
      obs::HistogramOptions{.first_bound = 0.01, .growth = 2.0, .num_bounds = 12},
      labels);
  for (const sched::SamplingEstimate& f : telemetry.finishes) {
    if (!f.mature) {
      immature.fetch_add(1);
      continue;
    }
    mature.fetch_add(1);
    if (f.actual > 0) error.observe(std::fabs(f.estimated - f.actual) / f.actual);
  }
}

}  // namespace

int run(int argc, char** argv) {
  std::string trace_path;
  std::string sched_list = "aalo,fair,varys";
  std::string csv_path;
  int ports_per_rack = 0;
  double oversubscription = 1.0;
  double delta = 0.0;
  int jobs = 1;
  bool stats = false;
  std::string metrics_dump_path;
  double deadline_slack = 0.0;
  bool lp_bound = false;
  bool lp_check = false;

  for (int i = 1; i < argc; ++i) {
    auto needValue = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage();
      }
      return argv[++i];
    };
    auto number = [&](const char* flag, auto min) {
      return tools::parseNumber(flag, needValue(flag), min, usage);
    };
    if (!std::strcmp(argv[i], "--trace")) {
      trace_path = needValue("--trace");
    } else if (!std::strcmp(argv[i], "--sched") ||
               !std::strcmp(argv[i], "--scheduler")) {
      sched_list = needValue("--sched");
    } else if (!std::strcmp(argv[i], "--csv")) {
      csv_path = needValue("--csv");
    } else if (!std::strcmp(argv[i], "--ports-per-rack")) {
      ports_per_rack = number("--ports-per-rack", 0);
    } else if (!std::strcmp(argv[i], "--oversubscription")) {
      oversubscription = number("--oversubscription", tools::kPositive);
    } else if (!std::strcmp(argv[i], "--delta")) {
      delta = number("--delta", 0.0);
    } else if (!std::strcmp(argv[i], "--jobs")) {
      jobs = number("--jobs", 0);
    } else if (!std::strcmp(argv[i], "--stats")) {
      stats = true;
    } else if (!std::strcmp(argv[i], "--metrics-dump")) {
      metrics_dump_path = needValue("--metrics-dump");
    } else if (!std::strcmp(argv[i], "--deadline-slack")) {
      deadline_slack = number("--deadline-slack", 0.0);
    } else if (!std::strcmp(argv[i], "--lp-bound")) {
      lp_bound = true;
    } else if (!std::strcmp(argv[i], "--lp-check")) {
      lp_bound = true;
      lp_check = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage();
    }
  }
  if (trace_path.empty()) usage();

  // Auto-detect format: the public coflow-benchmark traces start with
  // "<numRacks> <numJobs>", ours with "aalo-trace 1".
  coflow::Workload wl;
  {
    std::ifstream probe(trace_path);
    std::string first;
    probe >> first;
    if (first == "aalo-trace") {
      wl = workload::readTraceFile(trace_path);
    } else {
      wl = workload::readCoflowBenchmarkTraceFile(trace_path);
      std::fprintf(stderr, "detected coflow-benchmark format (%d racks)\n",
                   wl.num_ports);
    }
  }
  if (deadline_slack > 0) {
    workload::DeadlineConfig dl;
    dl.slack = deadline_slack;
    workload::assignDeadlines(wl, dl);
  }
  bool has_deadlines = false;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) has_deadlines = has_deadlines || c.deadline > 0;
  }
  fabric::FabricConfig fc{wl.num_ports, util::kGbps};
  fc.rack.ports_per_rack = ports_per_rack;
  fc.rack.oversubscription = oversubscription;
  sched::LpBoundResult bound;
  if (lp_bound) {
    bound = sched::computeCctLowerBound(wl, fc);
    std::fprintf(stderr, "LP lower bound on total CCT: %s (%zu coflows)\n",
                 util::formatSeconds(bound.total_cct).c_str(), bound.num_coflows);
  }

  std::ofstream csv;
  if (!csv_path.empty()) {
    csv.open(csv_path);
    if (!csv) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    csv << "scheduler,coflow,job,release,finish,cct,bytes,width\n";
  }

  std::vector<std::string> sched_names;
  {
    std::stringstream names(sched_list);
    std::string name;
    while (std::getline(names, name, ',')) {
      if (name.empty()) continue;
      if (sched::findScheduler(name) == nullptr) {
        std::fprintf(stderr, "unknown scheduler '%s'\n", name.c_str());
        usage();
      }
      sched_names.push_back(name);
    }
  }

  // One BatchJob per scheduler; --jobs threads run them concurrently.
  // Results come back in --sched order, so CSV and table output match a
  // serial run exactly.
  // With --metrics-dump every job gets a telemetry sink (deque: stable
  // addresses). Only the D-CLAS schedulers actually feed theirs; each
  // worker thread touches only its own sink.
  obs::Registry registry;
  std::deque<sched::DClasTelemetry> telemetry;
  std::deque<sched::SamplingTelemetry> sampling_telemetry;
  std::vector<sim::BatchJob> batch;
  for (const std::string& name : sched_names) {
    sched::DClasTelemetry* sink = nullptr;
    sched::SamplingTelemetry* sampling_sink = nullptr;
    if (!metrics_dump_path.empty()) {
      telemetry.emplace_back();
      sink = &telemetry.back();
      sampling_telemetry.emplace_back();
      sampling_sink = &sampling_telemetry.back();
    }
    sim::BatchJob job;
    job.label = name;
    job.workload = &wl;
    job.fabric = fc;
    job.make_scheduler = [&wl, name, delta, sink, sampling_sink] {
      auto scheduler = sched::makeScheduler(name, wl, delta);
      if (sink != nullptr) {
        if (auto* dclas = dynamic_cast<sched::DClasScheduler*>(scheduler.get())) {
          dclas->setTelemetry(sink);
        }
      }
      if (sampling_sink != nullptr) {
        if (auto* sampling =
                dynamic_cast<sched::SamplingScheduler*>(scheduler.get())) {
          sampling->setTelemetry(sampling_sink);
        }
      }
      return scheduler;
    };
    batch.push_back(std::move(job));
  }
  sim::BatchOptions bopts;
  bopts.num_threads = jobs;
  if (!metrics_dump_path.empty()) bopts.metrics = &registry;
  bopts.on_done = [](std::size_t /*index*/, const sim::BatchJob& /*job*/,
                     const sim::SimResult& result, double wall) {
    std::fprintf(stderr, "finished %s (%.1fs wall)\n", result.scheduler.c_str(), wall);
  };
  const std::vector<sim::SimResult> results = sim::runBatch(batch, bopts);

  std::vector<std::string> columns = {"scheduler", "avg CCT", "p95 CCT", "makespan",
                                      "rounds"};
  if (has_deadlines) {
    columns.insert(columns.end(), {"dl miss", "rejected"});
  }
  if (lp_bound) {
    columns.insert(columns.end(), {"total CCT", "vs LP"});
  }
  if (stats) {
    columns.insert(columns.end(), {"allocs", "reused", "rebuilds", "events", "rekeys"});
  }
  util::Table table(columns);
  bool bound_violated = false;
  for (const auto& result : results) {
    util::Summary cct;
    for (const auto& rec : result.coflows) {
      cct.add(rec.cct());
      if (csv.is_open()) {
        csv << result.scheduler << ',' << rec.id.toString() << ',' << rec.job << ','
            << rec.release << ',' << rec.finish << ',' << rec.cct() << ','
            << rec.bytes << ',' << rec.width << '\n';
      }
    }
    std::vector<std::string> row = {result.scheduler, util::formatSeconds(cct.mean()),
                                    util::formatSeconds(cct.percentile(95)),
                                    util::formatSeconds(result.makespan),
                                    std::to_string(result.allocation_rounds)};
    if (has_deadlines) {
      char miss[64];
      std::snprintf(miss, sizeof(miss), "%zu/%zu (%.1f%%)", result.deadline_misses,
                    result.deadline_coflows, 100.0 * result.deadlineMissRate());
      row.push_back(miss);
      row.push_back(std::to_string(result.rejected_coflows));
    }
    if (lp_bound) {
      const double ratio = sched::boundRatio(result.totalCct(), bound);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3fx", ratio);
      row.push_back(util::formatSeconds(result.totalCct()));
      row.push_back(buf);
      // Fluid event batching can shave at most O(eps) per coflow; any
      // bigger shortfall means the bound (or the engine) is unsound.
      if (ratio < 1.0 - 1e-6) {
        bound_violated = true;
        std::fprintf(stderr, "BOUND VIOLATION: %s total CCT %.9f < LP bound %.9f\n",
                     result.scheduler.c_str(), result.totalCct(), bound.total_cct);
      }
    }
    if (stats) {
      row.push_back(std::to_string(result.allocate_calls));
      row.push_back(std::to_string(result.reused_allocations));
      row.push_back(std::to_string(result.heap_rebuilds));
      row.push_back(std::to_string(result.events_processed));
      row.push_back(std::to_string(result.heap_rekeys));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  if (lp_check && bound_violated) return 1;

  if (!metrics_dump_path.empty()) {
    for (std::size_t j = 0; j < results.size(); ++j) {
      bridgeQueueTelemetry(registry, results[j].scheduler, telemetry[j]);
      bridgeSamplingTelemetry(registry, results[j].scheduler, sampling_telemetry[j]);
    }
    registry.dumpFiles(metrics_dump_path);
    std::fprintf(stderr, "metrics written to %s and %s.json\n",
                 metrics_dump_path.c_str(), metrics_dump_path.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aalo_sim: %s\n", e.what());
    return 1;
  }
}
