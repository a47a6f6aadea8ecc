// Figure 1: the worked 3x3 example. Instance recovered by
// tools/fig1_search.cc; the caption's averages are 5.33 / 5 / 4 / 3.67.
#include <unordered_map>

#include "bench/common.h"
#include "sched/clas.h"
#include "sched/fair.h"
#include "sched/las.h"
#include "sched/offline_opt.h"

using namespace aalo;

namespace {

coflow::Workload figure1Workload() {
  coflow::Workload wl;
  wl.num_ports = 8;
  auto add = [&](coflow::JobId id, double arrival,
                 std::vector<coflow::FlowSpec> flows) {
    coflow::JobSpec job;
    job.id = id;
    job.arrival = arrival;
    coflow::CoflowSpec spec;
    spec.id = {id, 0};
    spec.flows = std::move(flows);
    job.coflows.push_back(std::move(spec));
    wl.jobs.push_back(std::move(job));
  };
  add(0, 0.0, {{0, 2, 3.0, 0}, {1, 3, 3.0, 0}});  // C1 (orange)
  add(1, 1.0, {{1, 4, 2.0, 0}});                  // C2 (blue)
  add(2, 0.0, {{0, 5, 3.0, 0}});                  // C3 (black)
  return wl;
}

double avgCct(const sim::SimResult& r) {
  double total = 0;
  for (const auto& rec : r.coflows) total += rec.cct();
  return total / static_cast<double>(r.coflows.size());
}

}  // namespace

int main() {
  bench::header("Figure 1: online coflow scheduling over a 3x3 fabric",
                "avg CCT — per-flow fairness 5.33, decentralized LAS 5.00, "
                "CLAS 4.00, optimal 3.67 time units");

  const auto wl = figure1Workload();
  const fabric::FabricConfig fc{8, 1.0};

  sched::PerFlowFairScheduler fair;
  sched::LasConfig las_cfg;
  las_cfg.tie_window = 1e-4;
  las_cfg.quantum = 0.05;
  sched::DecentralizedLasScheduler las(las_cfg);
  sched::ClasConfig clas_cfg;
  clas_cfg.tie_window = 1e-4;
  clas_cfg.quantum = 0.05;
  sched::ContinuousClasScheduler clas(clas_cfg);
  std::unordered_map<coflow::CoflowId, int> opt_order = {
      {{2, 0}, 0}, {{1, 0}, 1}, {{0, 0}, 2}};
  sched::OfflineOrderScheduler opt(opt_order);

  util::Table table({"mechanism (subfigure)", "avg CCT (paper)", "avg CCT (measured)"});
  struct Row {
    const char* label;
    const char* paper;
    sim::Scheduler* scheduler;
  };
  std::vector<Row> rows = {{"per-flow fairness (c)", "5.33", &fair},
                           {"decentralized LAS (d)", "5.00", &las},
                           {"CLAS, instant coordination (e)", "4.00", &clas},
                           {"optimal schedule (f)", "3.67", &opt}};
  for (const Row& row : rows) {
    const auto result = sim::runSimulation(wl, fc, *row.scheduler);
    table.addRow({row.label, row.paper, util::Table::num(avgCct(result), 2)});
  }
  table.print(std::cout);
  std::printf(
      "\nInstance: C1 = {3 units on P1, 3 on P2} @t=0, C2 = {2 on P2} @t=1,\n"
      "C3 = {3 on P1} @t=0; unit-capacity ports, egress uncontended.\n");
  return 0;
}
