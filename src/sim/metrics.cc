#include "sim/metrics.h"

namespace aalo::sim {

void recordSimResult(obs::Registry& registry, const SimResult& result) {
  const std::string labels = "scheduler=\"" + result.scheduler + "\"";
  registry
      .counter("aalo_sim_rounds_total", "Allocation rounds executed", labels)
      .fetch_add(result.allocation_rounds);
  registry
      .counter("aalo_sim_allocate_calls_total",
               "Rounds that asked the scheduler for a fresh allocation", labels)
      .fetch_add(result.allocate_calls);
  registry
      .counter("aalo_sim_reused_allocations_total",
               "Rounds that reused installed rates (scheduleEpoch handshake)",
               labels)
      .fetch_add(result.reused_allocations);
  registry
      .counter("aalo_sim_heap_rebuilds_total",
               "Allocation installs by the incremental engine", labels)
      .fetch_add(result.heap_rebuilds);
  registry
      .counter("aalo_sim_coflows_total", "Coflows completed", labels)
      .fetch_add(result.coflows.size());
  registry
      .counter("aalo_sim_deadline_coflows_total",
               "Coflows that carried a completion deadline", labels)
      .fetch_add(result.deadline_coflows);
  registry
      .counter("aalo_sim_deadline_misses_total",
               "Deadlined coflows that finished past their deadline", labels)
      .fetch_add(result.deadline_misses);
  registry
      .counter("aalo_sim_rejected_coflows_total",
               "Coflows rejected by deadline-aware admission control", labels)
      .fetch_add(result.rejected_coflows);
  obs::LatencyHistogram& cct = registry.histogram(
      "aalo_sim_cct_seconds", "Coflow completion times",
      {.first_bound = 1e-3, .growth = 2.0, .num_bounds = 28}, labels);
  for (const CoflowRecord& c : result.coflows) cct.observe(c.cct());
}

}  // namespace aalo::sim
