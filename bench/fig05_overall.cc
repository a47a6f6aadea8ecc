// Figure 5: average and 95th-percentile improvements in job completion
// time (a) and time spent in communication (b) using Aalo, binned by the
// fraction of job duration spent in communication (Table 2 bands).
#include "bench/common.h"

using namespace aalo;

int main() {
  bench::header(
      "Figure 5: job-level improvements over per-flow fairness and Varys",
      "vs fairness: JCT up to 1.57x (p95 1.77x), comm time up to 2.25x "
      "(p95 2.93x); improvements grow with communication fraction; Aalo "
      "within ~12% of clairvoyant Varys on average");

  const auto wl = bench::standardWorkload();
  const auto fc = bench::standardFabric();

  // The three runs are independent; let the BatchRunner overlap them.
  std::vector<sim::BatchJob> jobs;
  for (const char* name : {"aalo", "fair", "varys"}) {
    jobs.push_back(bench::job(wl, fc, name));
  }
  const auto results = bench::runBatch(std::move(jobs));
  const auto& aalo_result = results[0];
  const auto& fair_result = results[1];
  const auto& varys_result = results[2];

  const char* band_labels[5] = {"<25%", "25-49%", "50-74%", ">=75%", "All Jobs"};

  auto printPanel = [&](const char* title, bool comm) {
    std::printf("\n%s (normalized w.r.t. Aalo; >1 = Aalo faster):\n", title);
    util::Table table({"comm fraction", "fair (avg)", "fair (p95)", "varys (avg)",
                       "varys (p95)", "jobs"});
    for (int band = 0; band < 5; ++band) {
      // Jobs are binned by their communication fraction under the
      // status-quo baseline (per-flow fairness), as in the trace.
      const auto vs_fair =
          analysis::normalizedJobTimes(fair_result, aalo_result, fair_result, band);
      const auto vs_varys =
          analysis::normalizedJobTimes(varys_result, aalo_result, fair_result, band);
      const auto& f = comm ? vs_fair.comm : vs_fair.jct;
      const auto& v = comm ? vs_varys.comm : vs_varys.jct;
      if (f.count == 0) {
        table.addRow({band_labels[band], "-", "-", "-", "-", "0"});
        continue;
      }
      table.addRow({band_labels[band], util::Table::num(f.avg, 2) + "x",
                    util::Table::num(f.p95, 2) + "x", util::Table::num(v.avg, 2) + "x",
                    util::Table::num(v.p95, 2) + "x", std::to_string(f.count)});
    }
    table.print(std::cout);
  };

  printPanel("Figure 5a — end-to-end job completion time", /*comm=*/false);
  printPanel("Figure 5b — time spent in communication", /*comm=*/true);
  return 0;
}
