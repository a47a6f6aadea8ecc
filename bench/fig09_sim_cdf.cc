// Figure 9: simulated CCT distributions for Aalo, Varys, per-flow
// fairness, and uncoordinated non-clairvoyant coflow scheduling.
#include "bench/common.h"

using namespace aalo;

int main() {
  bench::header(
      "Figure 9: simulated CCT distributions",
      "Aalo tracks Varys closely; the uncoordinated scheduler's CDF is "
      "shifted far right (orders of magnitude at the tail); Varys ~1.25x "
      "ahead only for coflows longer than 10s");

  const auto wl = bench::standardWorkload(300, 40, 11);
  const auto fc = bench::standardFabric();

  std::vector<sim::SimResult> results;
  for (const char* name : {"aalo", "varys", "fair", "uncoordinated"}) {
    results.push_back(bench::run(wl, fc, name));
  }

  std::printf("\nFraction of coflows with CCT <= t:\n");
  bench::printCctCdfs(results, 14);

  // Varys-vs-Aalo for long coflows (paper: 1.25x for CCTs > 10s).
  const auto& aalo_r = results[0];
  const auto& varys_r = results[1];
  util::Summary aalo_long;
  util::Summary varys_long;
  for (std::size_t i = 0; i < aalo_r.coflows.size(); ++i) {
    if (aalo_r.coflows[i].cct() > 10.0) {
      aalo_long.add(aalo_r.coflows[i].cct());
      varys_long.add(varys_r.coflows[i].cct());
    }
  }
  if (!aalo_long.empty()) {
    std::printf("\ncoflows with CCT > 10s under Aalo: %zu; avg CCT ratio "
                "aalo/varys = %.2fx (paper: ~1.25x)\n",
                aalo_long.count(), aalo_long.mean() / varys_long.mean());
  }
  return 0;
}
