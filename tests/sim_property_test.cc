// Cross-scheduler property sweeps on randomized workloads: lower bounds,
// work conservation, determinism, byte conservation.
#include <gtest/gtest.h>

#include <memory>

#include "sched/dclas.h"
#include "sched/fair.h"
#include "sched/varys.h"
#include "tests/helpers.h"
#include "util/rng.h"
#include "workload/facebook.h"

namespace aalo {
namespace {

using testing::allSchedulers;
using testing::makeWorkload;
using testing::runVerified;
using testing::unitFabric;

coflow::Workload randomWorkload(std::uint64_t seed, int ports, int jobs) {
  util::Rng rng(seed);
  std::vector<coflow::JobSpec> out;
  for (int j = 0; j < jobs; ++j) {
    coflow::JobSpec job;
    job.id = j;
    job.arrival = rng.uniform(0, 8);
    coflow::CoflowSpec spec;
    spec.id = {j, 0};
    const int flows = static_cast<int>(rng.uniformInt(1, 8));
    for (int f = 0; f < flows; ++f) {
      spec.flows.push_back(coflow::FlowSpec{
          static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
          static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
          rng.uniform(0.5, 25.0), rng.chance(0.25) ? rng.uniform(0, 4) : 0.0});
    }
    job.coflows.push_back(std::move(spec));
    out.push_back(std::move(job));
  }
  return makeWorkload(ports, std::move(out));
}

class SchedulerProperties : public ::testing::TestWithParam<int> {};

// Every coflow's CCT is bounded below by its isolated bottleneck time
// (no scheduler can beat physics), and every coflow completes.
TEST_P(SchedulerProperties, CctLowerBoundHolds) {
  const auto wl = randomWorkload(100 + static_cast<std::uint64_t>(GetParam()), 5, 12);
  // Isolated lower bound per coflow id (offsets make it a conservative
  // under-estimate, which is fine for a lower bound).
  std::unordered_map<coflow::CoflowId, double> bound;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) {
      bound[c.id] = workload::isolatedBottleneckSeconds(c, 1.0);
    }
  }
  for (const auto& sched : allSchedulers(wl)) {
    const auto result = runVerified(wl, unitFabric(5), *sched);
    ASSERT_EQ(result.coflows.size(), wl.coflowCount()) << sched->name();
    for (const auto& rec : result.coflows) {
      EXPECT_GE(rec.cct() + 1e-6, bound.at(rec.id)) << sched->name();
    }
  }
}

// With a single contended port and a standing backlog, every
// work-conserving scheduler drains the same bytes in the same time.
TEST_P(SchedulerProperties, WorkConservingMakespanOnSingleBottleneck) {
  util::Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  std::vector<coflow::JobSpec> jobs;
  double total = 0;
  for (int j = 0; j < 10; ++j) {
    coflow::JobSpec job;
    job.id = j;
    job.arrival = 0;  // Everything at t=0: no idle gaps possible.
    coflow::CoflowSpec spec;
    spec.id = {j, 0};
    const double bytes = rng.uniform(1, 20);
    total += bytes;
    spec.flows.push_back(coflow::FlowSpec{0, 1, bytes, 0});
    job.coflows.push_back(std::move(spec));
    jobs.push_back(std::move(job));
  }
  const auto wl = makeWorkload(2, std::move(jobs));
  const auto zoo = allSchedulers(wl);
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    if (i == testing::kAdmissionDelayedVarys) continue;
    const auto result = runVerified(wl, unitFabric(2), *zoo[i]);
    EXPECT_NEAR(result.makespan, total, total * 1e-6 + 1e-3) << zoo[i]->name();
  }
}

// Determinism: identical runs give identical records.
TEST_P(SchedulerProperties, RunsAreDeterministic) {
  const auto wl = randomWorkload(300 + static_cast<std::uint64_t>(GetParam()), 4, 8);
  for (const auto& sched : allSchedulers(wl)) {
    const auto a = runVerified(wl, unitFabric(4), *sched);
    const auto b = runVerified(wl, unitFabric(4), *sched);
    ASSERT_EQ(a.coflows.size(), b.coflows.size()) << sched->name();
    for (std::size_t i = 0; i < a.coflows.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.coflows[i].finish, b.coflows[i].finish) << sched->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerProperties, ::testing::Range(0, 6));

// On the heavy-tailed Facebook mix, Aalo must beat per-flow fairness on
// average CCT — the paper's core claim, held as a regression invariant.
TEST(SchedulerRegression, AaloBeatsFairOnHeavyTails) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 120;
  cfg.num_ports = 20;
  cfg.seed = 77;
  cfg.mean_interarrival = 0.3;
  const auto wl = generateFacebookWorkload(cfg);
  const fabric::FabricConfig fc{20, util::kGbps};
  sched::DClasScheduler aalo{sched::DClasConfig{}};
  sched::PerFlowFairScheduler fair;
  const auto aalo_result = sim::runSimulation(wl, fc, aalo);
  const auto fair_result = sim::runSimulation(wl, fc, fair);
  EXPECT_LT(testing::avgCct(aalo_result), testing::avgCct(fair_result));
}

// And the clairvoyant Varys must beat Aalo (it knows strictly more).
TEST(SchedulerRegression, VarysBeatsAaloWithFullKnowledge) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 120;
  cfg.num_ports = 20;
  cfg.seed = 78;
  cfg.mean_interarrival = 0.3;
  const auto wl = generateFacebookWorkload(cfg);
  const fabric::FabricConfig fc{20, util::kGbps};
  sched::DClasScheduler aalo{sched::DClasConfig{}};
  sched::VarysScheduler varys;
  const auto aalo_result = sim::runSimulation(wl, fc, aalo);
  const auto varys_result = sim::runSimulation(wl, fc, varys);
  EXPECT_LT(testing::avgCct(varys_result), testing::avgCct(aalo_result) * 1.05);
}

}  // namespace
}  // namespace aalo
