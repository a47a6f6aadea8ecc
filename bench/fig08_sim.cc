// Figure 8: trace-driven simulation comparing Aalo with per-flow
// fairness, clairvoyant Varys, uncoordinated non-clairvoyant scheduling
// (per-port D-CLAS on local knowledge), and Baraat's FIFO-LM; plus the
// §7.2.1 "how far from optimal" estimate against the offline
// 2-approximation for concurrent open shop.
#include "bench/common.h"
#include "sched/fifo_lm.h"

using namespace aalo;

int main() {
  bench::header(
      "Figure 8: simulated improvements in average CCT",
      "fairness ~2.7x; uncoordinated non-clairvoyant ~15.8x (coordination "
      "is the key!); FIFO-LM ~18.6x with its 80th-percentile heavy "
      "threshold; offline 2-approx: 0.75/0.78/1.32/1.15x per bin, 1.19x "
      "overall");

  const auto wl = bench::standardWorkload(300, 40, 11);
  const auto fc = bench::standardFabric();

  // All eleven runs (Aalo, five baselines, five FIFO-LM sweep points) are
  // independent — one batch keeps every core busy.
  const std::vector<double> sweep_pcts = {20.0, 40.0, 60.0, 80.0, 90.0};
  std::vector<sim::BatchJob> jobs;
  for (const char* name :
       {"aalo", "fair", "varys", "uncoordinated", "fifo-lm", "offline"}) {
    jobs.push_back(bench::job(wl, fc, name));
  }
  for (const double pct : sweep_pcts) {
    sched::FifoLmConfig cfg;
    cfg.heavy_threshold = sched::heavyThreshold(wl, pct);
    cfg.quantum = 2.0;
    jobs.push_back(bench::job(
        wl, fc, [cfg] { return std::make_unique<sched::FifoLmScheduler>(cfg); },
        "fifo-lm@p" + util::Table::num(pct, 0)));
  }
  const auto results = bench::runBatch(std::move(jobs));
  const auto& aalo_result = results[0];
  const std::vector<sim::SimResult> compared(results.begin() + 1, results.begin() + 6);

  std::printf("\nNormalized average CCT w.r.t. Aalo, per Table 3 bin:\n");
  bench::printNormalizedByBin(compared, aalo_result);

  // The paper swept FIFO-LM's heavy threshold and found the 80th
  // percentile best; reproduce the sweep direction.
  std::printf("\nFIFO-LM heavy-threshold sweep (normalized avg CCT w.r.t. Aalo):\n");
  util::Table sweep({"threshold percentile", "normalized avg CCT"});
  for (std::size_t i = 0; i < sweep_pcts.size(); ++i) {
    const auto& result = results[6 + i];
    sweep.addRow({util::Table::num(sweep_pcts[i], 0) + "th",
                  util::Table::num(analysis::normalizedCct(result, aalo_result).avg, 2) +
                      "x"});
  }
  sweep.print(std::cout);
  return 0;
}
