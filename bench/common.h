// Shared harness for the paper-reproduction benches (one binary per table
// or figure; see DESIGN.md section 4 for the experiment index).
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/compare.h"
#include "coflow/spec.h"
#include "sched/registry.h"
#include "sim/batch.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/facebook.h"

namespace aalo::bench {

/// The workload Figures 5-9 benches replay: Facebook-like mix (Tables 2
/// and 3) on a 40-port, 1 Gbps fabric.
coflow::Workload standardWorkload(std::size_t jobs = 250, int ports = 40,
                                  std::uint64_t seed = 42);

fabric::FabricConfig standardFabric(int ports = 40);

/// Runs and reports wall time to stderr so long benches show progress.
sim::SimResult run(const coflow::Workload& workload, fabric::FabricConfig fabric,
                   sim::Scheduler& scheduler, const std::string& label);

/// Builds the catalogue scheduler `name` (sched/registry.h) for `workload`
/// and runs it as above, labelled with the scheduler's own name unless
/// `label` is given.
sim::SimResult run(const coflow::Workload& workload, fabric::FabricConfig fabric,
                   std::string_view name, std::string label = "");

/// Builds a BatchJob for the sweep benches. The workload is captured by
/// pointer and must outlive the batch; the factory runs once, inside the
/// worker thread. An empty label falls back to the scheduler's name.
sim::BatchJob job(const coflow::Workload& workload, fabric::FabricConfig fabric,
                  std::function<std::unique_ptr<sim::Scheduler>()> make_scheduler,
                  std::string label = "");

/// The same for the catalogue scheduler `name`, built with coordination
/// interval `delta` (used by "aalo" only).
sim::BatchJob job(const coflow::Workload& workload, fabric::FabricConfig fabric,
                  std::string_view name, std::string label = "",
                  util::Seconds delta = 0);

/// Runs independent sims on the BatchRunner pool with the same stderr
/// progress lines as `run`. Results come back in submission order, so
/// output is identical to a serial loop. Thread count: AALO_BENCH_JOBS
/// env var if set, else all hardware threads.
std::vector<sim::SimResult> runBatch(std::vector<sim::BatchJob> jobs);

/// Prints the paper's standard table: normalized completion time w.r.t.
/// Aalo for each Table 3 bin and overall, average and 95th percentile.
void printNormalizedByBin(const std::vector<sim::SimResult>& compared,
                          const sim::SimResult& aalo);

/// Prints a CDF table (log-spaced CCT points) for several runs.
void printCctCdfs(const std::vector<sim::SimResult>& runs, std::size_t points = 12);

/// Banner with the paper's expectation for this experiment.
void header(const std::string& figure, const std::string& expectation);

}  // namespace aalo::bench
