// Figure 7: CDFs of coflow completion times for Aalo, Varys, and per-flow
// fairness (EC2-scale run; log-spaced CCT probe points).
#include "bench/common.h"

using namespace aalo;

int main() {
  bench::header(
      "Figure 7: CCT distributions",
      "Aalo matches or beats fair sharing across the whole range "
      "(milliseconds to hours); Aalo beats Varys on sub-200ms coflows "
      "(no coordination overhead) and trails it in the 200ms-30s range");

  const auto wl = bench::standardWorkload();
  const auto fc = bench::standardFabric();

  std::vector<sim::SimResult> results;
  for (const char* name : {"aalo", "varys", "fair"}) {
    results.push_back(bench::run(wl, fc, name));
  }

  std::printf("\nFraction of coflows with CCT <= t:\n");
  bench::printCctCdfs(results, 14);

  // The paper explains Varys's mid-range edge via coflow width (few-flow
  // coflows suffer when interleaved with very wide ones) — quantify the
  // tail percentiles to make the crossover visible.
  std::printf("\nCCT percentiles (seconds):\n");
  util::Table table({"percentile", "aalo", "varys", "fair"});
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    std::vector<std::string> row = {util::Table::num(p, 0) + "th"};
    for (const auto& r : results) {
      util::Summary s;
      for (const auto& rec : r.coflows) s.add(rec.cct());
      row.push_back(util::Table::num(s.percentile(p), 3));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  return 0;
}
