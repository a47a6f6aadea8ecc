// Appendix B: continuous vs discretized prioritization. N identical
// coflows of size S in [Q_k^lo, Q_k^hi) arrive together.
//
// Continuous CLAS degenerates into byte-by-byte round-robin:
//   T_cont ~ N^2 f(S).
// D-CLAS (strict priorities, the appendix's model) fair-shares only while
// the coflows cascade down to queue k, then serves them FIFO:
//   T_disc ~ N^2 f(Q_k^lo) + N(N+1)/2 f(S - Q_k^lo).
// The normalized total T_cont/T_disc approaches 2x from 1x as S grows
// from Q_k^lo toward Q_k^hi. The paper's deployed weighted-queue variant
// lands between the two (it trades a little of this gain for starvation
// freedom) — shown in the last column.
#include "bench/common.h"
#include "sched/clas.h"
#include "sched/dclas.h"

using namespace aalo;

namespace {

coflow::Workload identicalCoflows(int n, util::Bytes size, int ports) {
  coflow::Workload wl;
  wl.num_ports = ports;
  for (int k = 0; k < n; ++k) {
    coflow::JobSpec job;
    job.id = k;
    job.arrival = 0;
    coflow::CoflowSpec spec;
    spec.id = {k, 0};
    spec.flows.push_back({0, 1, size, 0});  // All contend on one port pair.
    job.coflows.push_back(std::move(spec));
    wl.jobs.push_back(std::move(job));
  }
  return wl;
}

double totalCct(const sim::SimResult& r) {
  double total = 0;
  for (const auto& rec : r.coflows) total += rec.cct();
  return total;
}

}  // namespace

int main() {
  bench::header(
      "Appendix B: continuous vs discretized prioritization",
      "T_cont/T_disc grows from ~1x at S = Q_k^lo toward 2x at S -> "
      "Q_k^hi (exactly 2 in the N -> infinity, S >> Q_k^lo limit)");

  constexpr int kN = 8;
  const fabric::FabricConfig fc{2, 1e6};  // 1 MB/s; MB == seconds.

  auto runOnce = [&](int n, double s, bool strict) {
    const auto wl = identicalCoflows(n, s, 2);
    sched::DClasConfig cfg;  // Queue k = [10MB, 100MB) with defaults.
    if (strict) cfg.policy = sched::DClasConfig::QueuePolicy::kStrictPriority;
    sched::DClasScheduler dclas(cfg);
    return totalCct(sim::runSimulation(wl, fc, dclas));
  };
  auto runCont = [&](int n, double s) {
    const auto wl = identicalCoflows(n, s, 2);
    sched::ClasConfig cfg;
    cfg.tie_window = 1024;  // Identical coflows stay tied: round-robin.
    cfg.quantum = 2.0;
    sched::ContinuousClasScheduler clas(cfg);
    return totalCct(sim::runSimulation(wl, fc, clas));
  };

  std::printf("\nSweep S across queue k = [10MB, 100MB), N = %d coflows:\n", kN);
  util::Table table({"S", "T_cont", "T_disc (strict)", "ratio",
                     "model", "ratio (weighted)"});
  // Start just above Q_k^lo: at exactly 10 MB a coflow completes the
  // instant it would be demoted, which degenerates to plain FIFO.
  for (const double s : {12e6, 20e6, 40e6, 60e6, 80e6, 99e6}) {
    const double cont = runCont(kN, s);
    const double strict = runOnce(kN, s, true);
    const double weighted = runOnce(kN, s, false);
    const double smb = s / 1e6;
    const double model = (kN * kN * smb) /
                         (kN * kN * 10.0 + kN * (kN + 1) / 2.0 * (smb - 10.0));
    table.addRow({util::formatBytes(s), util::Table::num(cont, 0),
                  util::Table::num(strict, 0),
                  util::Table::num(cont / strict, 2) + "x",
                  util::Table::num(model, 2) + "x",
                  util::Table::num(cont / weighted, 2) + "x"});
  }
  table.print(std::cout);

  std::printf("\nLimit behaviour: N sweep at S = 99 MB (model -> 2S/(S+Q_k^lo)):\n");
  util::Table limit({"N", "T_cont/T_disc (strict)"});
  for (const int n : {2, 4, 8, 16, 32}) {
    limit.addRow({std::to_string(n),
                  util::Table::num(runCont(n, 99e6) / runOnce(n, 99e6, true), 2) + "x"});
  }
  limit.print(std::cout);
  return 0;
}
