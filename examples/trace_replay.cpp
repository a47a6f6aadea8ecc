// Trace replay: generate (or load) a Facebook-like coflow trace and replay
// it under every scheduler of the catalogue (sched/registry.h), each at
// its paper default, printing a comparison table.
//
//   $ ./trace_replay                 # synthesize a trace, replay it
//   $ ./trace_replay my_trace.txt    # replay a saved aalo-trace file
//   $ ./trace_replay --save out.txt  # synthesize and save, then replay
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "analysis/compare.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "workload/facebook.h"
#include "workload/trace_io.h"

using namespace aalo;

int main(int argc, char** argv) {
  coflow::Workload workload;
  if (argc >= 2 && std::strcmp(argv[1], "--save") != 0) {
    std::printf("loading trace %s ...\n", argv[1]);
    workload = workload::readTraceFile(argv[1]);
  } else {
    workload::FacebookConfig cfg;
    cfg.num_jobs = 100;
    cfg.num_ports = 30;
    cfg.seed = 2025;
    workload = workload::generateFacebookWorkload(cfg);
    if (argc >= 3 && std::strcmp(argv[1], "--save") == 0) {
      workload::writeTraceFile(argv[2], workload);
      std::printf("saved synthesized trace to %s\n", argv[2]);
    }
  }
  std::printf("trace: %zu jobs, %zu coflows, %s over %d ports\n\n",
              workload.jobs.size(), workload.coflowCount(),
              util::formatBytes(workload.totalBytes()).c_str(),
              workload.num_ports);

  const fabric::FabricConfig fabric_config{workload.num_ports, util::kGbps};

  // The catalogue lists "aalo" first; the table normalizes against it.
  std::vector<sim::SimResult> results;
  for (const sched::RegisteredScheduler& entry : sched::registeredSchedulers()) {
    const auto scheduler = entry.make(workload, /*delta=*/0);
    std::printf("replaying under %-22s ...\n", scheduler->name().c_str());
    results.push_back(sim::runSimulation(workload, fabric_config, *scheduler));
  }

  const sim::SimResult& aalo_result = results[0];
  util::Table table({"scheduler", "avg CCT", "p95 CCT", "norm. vs Aalo (avg)",
                     "norm. vs Aalo (p95)"});
  for (const auto& result : results) {
    util::Summary cct;
    for (const auto& rec : result.coflows) cct.add(rec.cct());
    const auto norm = analysis::normalizedCct(result, aalo_result);
    table.addRow({result.scheduler, util::formatSeconds(cct.mean()),
                  util::formatSeconds(cct.percentile(95)),
                  util::Table::num(norm.avg, 2) + "x",
                  util::Table::num(norm.p95, 2) + "x"});
  }
  std::printf("\n");
  table.print(std::cout);
  std::printf("\nvalues > 1.0x mean Aalo completes coflows that much faster.\n");
  return 0;
}
