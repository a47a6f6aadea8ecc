#include "sched/lp_bound.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace aalo::sched {

namespace {

/// Mirror of the engine's completion slack (sim/simulator.cc): a flow
/// snaps to done within slackFor(size) bytes of its size, so a sound
/// lower bound may only charge the bytes a schedule must actually move.
util::Bytes effectiveBytes(util::Bytes size) {
  const util::Bytes slack = std::max(1e-3, 1e-9 * size);
  return std::max(0.0, size - slack);
}

/// Optimal preemptive sum of flow times (C_j - r_j) on one machine:
/// shortest-remaining-processing-time, which is exactly optimal for
/// 1 | r_j, pmtn | sum C_j.
util::Seconds srptTotalFlowTime(std::vector<std::pair<util::Seconds, util::Seconds>>& jobs) {
  // jobs: (release, processing). Sorted by release below.
  std::sort(jobs.begin(), jobs.end());
  std::priority_queue<util::Seconds, std::vector<util::Seconds>,
                      std::greater<util::Seconds>>
      remaining;
  util::Seconds t = 0;
  util::Seconds total_completion = 0;
  util::Seconds total_release = 0;
  std::size_t i = 0;
  for (const auto& [r, p] : jobs) total_release += r;
  while (i < jobs.size() || !remaining.empty()) {
    if (remaining.empty()) {
      t = std::max(t, jobs[i].first);
      remaining.push(jobs[i].second);
      ++i;
      continue;
    }
    const util::Seconds next_release =
        i < jobs.size() ? jobs[i].first : std::numeric_limits<util::Seconds>::infinity();
    const util::Seconds rem = remaining.top();
    if (t + rem <= next_release) {
      remaining.pop();
      t += rem;
      total_completion += t;
    } else {
      remaining.pop();
      remaining.push(rem - (next_release - t));
      t = next_release;
      remaining.push(jobs[i].second);
      ++i;
    }
  }
  return total_completion - total_release;
}

}  // namespace

LpBoundResult computeCctLowerBound(const coflow::Workload& workload,
                                   const fabric::FabricConfig& config) {
  LpBoundResult result;
  const fabric::Fabric fabric(config);
  // One machine per resource: every port and rack link.
  const std::size_t machines = fabric.numResources();
  const std::vector<util::Rate>& capacity = fabric.capacities();

  // Per-machine relaxed jobs: (release, processing seconds) plus the
  // isolated time of the contributing coflow (subtracted from the
  // everyone-else term below).
  std::vector<std::vector<std::pair<util::Seconds, util::Seconds>>> machine_jobs(
      machines);
  std::vector<util::Seconds> machine_iso(machines, 0.0);

  std::vector<util::Bytes> load(machines, 0.0);
  std::vector<std::size_t> touched;
  for (const coflow::JobSpec& job : workload.jobs) {
    for (const coflow::CoflowSpec& spec : job.coflows) {
      ++result.num_coflows;
      const util::Seconds release = job.arrival + spec.arrival_offset;
      // A Starts-After barrier makes the true release schedule-dependent
      // (>= this instant); such coflows contribute isolation only.
      const bool release_known = spec.starts_after.empty();

      touched.clear();
      util::Seconds iso = 0;
      for (const coflow::FlowSpec& f : spec.flows) {
        const util::Bytes b = effectiveBytes(f.bytes);
        util::Rate line_rate = std::numeric_limits<util::Rate>::infinity();
        for (const std::uint32_t m : fabric.route(f.src, f.dst)) {
          if (load[m] == 0) touched.push_back(m);
          load[m] += b;
          line_rate = std::min(line_rate, capacity[m]);
        }
        // Even alone on the fabric, this flow cannot finish before its
        // own start offset plus its line-rate transfer time.
        iso = std::max(iso, f.start_offset + b / line_rate);
      }
      for (const std::size_t m : touched) {
        iso = std::max(iso, load[m] / capacity[m]);
      }
      result.isolation_total += iso;
      for (const std::size_t m : touched) {
        if (release_known && load[m] > 0) {
          machine_jobs[m].emplace_back(release, load[m] / capacity[m]);
          machine_iso[m] += iso;
        }
        load[m] = 0;  // Reset for the next coflow.
      }
    }
  }

  for (std::size_t m = 0; m < machines; ++m) {
    if (machine_jobs[m].empty()) continue;
    // SRPT lower-bounds the summed CCTs of the coflows loading machine m;
    // everyone else still pays at least their isolated time.
    const util::Seconds bound = srptTotalFlowTime(machine_jobs[m]) +
                                (result.isolation_total - machine_iso[m]);
    result.best_machine = std::max(result.best_machine, bound);
  }
  result.total_cct = std::max(result.isolation_total, result.best_machine);
  return result;
}

double boundRatio(util::Seconds achieved_total_cct, const LpBoundResult& bound) {
  if (bound.total_cct <= 0) return 1.0;
  return achieved_total_cct / bound.total_cct;
}

}  // namespace aalo::sched
