// Randomized equivalence tests for the hot-path rework:
//  - the arena-based maxMinAllocate against the retained reference
//    implementation on fuzzed demand sets (with and without racks);
//  - sim::runBatch against a serial loop (results must match exactly,
//    independent of thread count).
#include <gtest/gtest.h>

#include <random>

#include "fabric/maxmin.h"
#include "sim/batch.h"
#include "sched/common.h"
#include "sched/dclas.h"
#include "sched/fair.h"
#include "sched/varys.h"
#include "workload/facebook.h"

namespace aalo {
namespace {

// ---------------------------------------------------------------------------
// maxMinAllocate vs maxMinAllocateReference
// ---------------------------------------------------------------------------

struct FuzzCase {
  fabric::FabricConfig config;
  std::vector<fabric::Demand> demands;
};

FuzzCase makeCase(std::mt19937_64& rng, bool with_racks) {
  FuzzCase c;
  std::uniform_int_distribution<int> ports_dist(2, 48);
  int ports = ports_dist(rng);
  if (with_racks) {
    std::uniform_int_distribution<int> per_rack(2, 8);
    const int ppr = per_rack(rng);
    ports = std::max(ppr, (ports / ppr) * ppr);  // Multiple of ppr.
    c.config.rack.ports_per_rack = ppr;
    c.config.rack.oversubscription = std::uniform_real_distribution<>(1.0, 8.0)(rng);
  }
  c.config.num_ports = ports;
  c.config.port_capacity = util::kGbps;

  std::uniform_int_distribution<int> n_dist(1, 64);
  std::uniform_int_distribution<int> port_dist(0, ports - 1);
  std::uniform_real_distribution<double> weight_dist(0.25, 4.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int n = n_dist(rng);
  for (int i = 0; i < n; ++i) {
    fabric::Demand d;
    d.src = port_dist(rng);
    d.dst = port_dist(rng);
    const double w = unit(rng);
    if (w < 0.1) {
      d.weight = 0.0;  // Must yield exactly zero rate.
    } else if (w < 0.8) {
      d.weight = weight_dist(rng);
    }  // else weight stays 1.0 — the common case.
    c.demands.push_back(d);
  }
  return c;
}

void expectEquivalent(const FuzzCase& c, fabric::MaxMinScratch& scratch,
                      std::uint64_t seed) {
  const fabric::Fabric fab(c.config);
  fabric::ResidualCapacity res_opt(fab);
  fabric::ResidualCapacity res_ref(fab);

  const std::vector<util::Rate>& opt =
      fabric::maxMinAllocate(c.demands, res_opt, scratch);
  const std::vector<util::Rate> ref = fabric::maxMinAllocateReference(c.demands, res_ref);

  ASSERT_EQ(opt.size(), ref.size()) << "seed " << seed;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(opt[i], ref[i], 1e-9) << "seed " << seed << " demand " << i;
  }
  // Both must have consumed the residual identically.
  for (int p = 0; p < fab.numPorts(); ++p) {
    EXPECT_NEAR(res_opt.ingress(p), res_ref.ingress(p), 1e-9)
        << "seed " << seed << " ingress " << p;
    EXPECT_NEAR(res_opt.egress(p), res_ref.egress(p), 1e-9)
        << "seed " << seed << " egress " << p;
  }
  if (fab.hasRacks()) {
    for (int r = 0; r < fab.numRacks(); ++r) {
      EXPECT_NEAR(res_opt.rackUplink(r), res_ref.rackUplink(r), 1e-9)
          << "seed " << seed << " uplink " << r;
      EXPECT_NEAR(res_opt.rackDownlink(r), res_ref.rackDownlink(r), 1e-9)
          << "seed " << seed << " downlink " << r;
    }
  }
}

TEST(MaxMinEquivalence, FuzzedDemandSetsNoRacks) {
  std::mt19937_64 rng(0xaa10);
  fabric::MaxMinScratch scratch;  // Shared across all cases: tests arena reuse.
  for (int iter = 0; iter < 1000; ++iter) {
    expectEquivalent(makeCase(rng, /*with_racks=*/false), scratch, 0xaa10 + iter);
  }
}

TEST(MaxMinEquivalence, FuzzedDemandSetsWithRacks) {
  std::mt19937_64 rng(0xbb20);
  fabric::MaxMinScratch scratch;
  for (int iter = 0; iter < 1000; ++iter) {
    expectEquivalent(makeCase(rng, /*with_racks=*/true), scratch, 0xbb20 + iter);
  }
}

TEST(MaxMinEquivalence, ScratchAliasedAsInput) {
  // The documented contract: scratch.demands may be the input span.
  std::mt19937_64 rng(0xcc30);
  fabric::MaxMinScratch scratch;
  for (int iter = 0; iter < 50; ++iter) {
    const FuzzCase c = makeCase(rng, iter % 2 == 1);
    const fabric::Fabric fab(c.config);
    fabric::ResidualCapacity res_opt(fab);
    fabric::ResidualCapacity res_ref(fab);
    scratch.demands = c.demands;
    const std::vector<util::Rate>& opt =
        fabric::maxMinAllocate(scratch.demands, res_opt, scratch);
    const std::vector<util::Rate> ref =
        fabric::maxMinAllocateReference(c.demands, res_ref);
    ASSERT_EQ(opt.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(opt[i], ref[i], 1e-9) << "iter " << iter << " demand " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// sim::runBatch vs serial execution
// ---------------------------------------------------------------------------

coflow::Workload batchWorkload(std::uint64_t seed) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 40;
  cfg.num_ports = 20;
  cfg.seed = seed;
  cfg.mean_interarrival = 0.3;
  return workload::generateFacebookWorkload(cfg);
}

std::vector<sim::BatchJob> batchJobs(const coflow::Workload& wl) {
  const fabric::FabricConfig fc{20, util::kGbps};
  std::vector<sim::BatchJob> jobs;
  auto add = [&](std::function<std::unique_ptr<sim::Scheduler>()> make) {
    sim::BatchJob j;
    j.workload = &wl;
    j.fabric = fc;
    j.make_scheduler = std::move(make);
    jobs.push_back(std::move(j));
  };
  add([] { return std::make_unique<sched::DClasScheduler>(); });
  add([] {
    sched::DClasConfig cfg;
    cfg.sync_interval = 0.1;
    return std::make_unique<sched::DClasScheduler>(cfg);
  });
  add([] { return std::make_unique<sched::PerFlowFairScheduler>(); });
  add([] { return std::make_unique<sched::VarysScheduler>(); });
  add([] {
    sched::DClasConfig cfg;
    cfg.policy = sched::DClasConfig::QueuePolicy::kStrictPriority;
    return std::make_unique<sched::DClasScheduler>(cfg);
  });
  return jobs;
}

/// Exact comparison — every double bitwise equal, so thread count and
/// completion order provably cannot leak into results.
void expectIdentical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.allocation_rounds, b.allocation_rounds);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].id, b.coflows[i].id);
    EXPECT_EQ(a.coflows[i].job, b.coflows[i].job);
    EXPECT_EQ(a.coflows[i].release, b.coflows[i].release);
    EXPECT_EQ(a.coflows[i].finish, b.coflows[i].finish);
    EXPECT_EQ(a.coflows[i].bytes, b.coflows[i].bytes);
    EXPECT_EQ(a.coflows[i].width, b.coflows[i].width);
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].comm_finish, b.jobs[i].comm_finish);
    EXPECT_EQ(a.jobs[i].compute_time, b.jobs[i].compute_time);
  }
}

TEST(BatchRunner, MatchesSerialExecutionExactly) {
  const coflow::Workload wl = batchWorkload(7);
  const std::vector<sim::BatchJob> jobs = batchJobs(wl);

  sim::BatchOptions serial;
  serial.num_threads = 1;
  const std::vector<sim::SimResult> base = sim::runBatch(jobs, serial);
  ASSERT_EQ(base.size(), jobs.size());

  for (const int threads : {2, 4, 8}) {
    sim::BatchOptions opts;
    opts.num_threads = threads;
    const std::vector<sim::SimResult> got = sim::runBatch(jobs, opts);
    ASSERT_EQ(got.size(), base.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.size(); ++i) {
      SCOPED_TRACE(testing::Message() << threads << " threads, job " << i);
      expectIdentical(base[i], got[i]);
    }
  }
}

TEST(BatchRunner, OnDoneFiresOncePerJobAndIsSerialized) {
  const coflow::Workload wl = batchWorkload(9);
  const std::vector<sim::BatchJob> jobs = batchJobs(wl);
  std::vector<int> calls(jobs.size(), 0);
  int in_flight = 0;  // Mutated without atomics: the lock must protect it.
  sim::BatchOptions opts;
  opts.num_threads = 4;
  opts.on_done = [&](std::size_t index, const sim::BatchJob&,
                     const sim::SimResult& result, double wall) {
    ++in_flight;
    EXPECT_EQ(in_flight, 1);
    ASSERT_LT(index, calls.size());
    ++calls[index];
    EXPECT_FALSE(result.scheduler.empty());
    EXPECT_GE(wall, 0.0);
    --in_flight;
  };
  (void)sim::runBatch(jobs, opts);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i], 1) << "job " << i;
  }
}

TEST(BatchRunner, FirstExceptionInSubmissionOrderWins) {
  const coflow::Workload wl = batchWorkload(11);
  std::vector<sim::BatchJob> jobs = batchJobs(wl);
  // Jobs 1 and 3 fail; the rethrown error must be job 1's regardless of
  // which worker hits it first.
  jobs[1].make_scheduler = []() -> std::unique_ptr<sim::Scheduler> {
    throw std::runtime_error("boom-1");
  };
  jobs[3].make_scheduler = []() -> std::unique_ptr<sim::Scheduler> {
    throw std::runtime_error("boom-3");
  };
  sim::BatchOptions opts;
  opts.num_threads = 4;
  try {
    (void)sim::runBatch(jobs, opts);
    FAIL() << "expected runBatch to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-1");
  }
}

TEST(BatchRunner, RejectsNullWorkload) {
  std::vector<sim::BatchJob> jobs(1);
  jobs[0].make_scheduler = [] { return std::make_unique<sched::PerFlowFairScheduler>(); };
  EXPECT_THROW((void)sim::runBatch(jobs), std::invalid_argument);
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(sim::runBatch({}).empty());
}

}  // namespace
}  // namespace aalo
