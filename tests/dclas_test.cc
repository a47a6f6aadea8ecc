#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sched/dclas.h"
#include "sched/fair.h"
#include "tests/helpers.h"
#include "util/units.h"

namespace aalo::sched {
namespace {

using aalo::testing::FlowDef;
using aalo::testing::avgCct;
using aalo::testing::cctOf;
using aalo::testing::makeJob;
using aalo::testing::makeWorkload;
using aalo::testing::runVerified;
using aalo::testing::unitFabric;
using util::kMB;

TEST(DClasConfig, ExponentialThresholds) {
  DClasConfig cfg;
  cfg.num_queues = 4;
  cfg.exp_factor = 10;
  cfg.first_threshold = 10 * kMB;
  const auto t = cfg.thresholds();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0], 10 * kMB);
  EXPECT_DOUBLE_EQ(t[1], 100 * kMB);
  EXPECT_DOUBLE_EQ(t[2], 1000 * kMB);
}

TEST(DClasConfig, SingleQueueHasNoThresholds) {
  DClasConfig cfg;
  cfg.num_queues = 1;
  EXPECT_TRUE(cfg.thresholds().empty());
}

TEST(DClasConfig, Validation) {
  DClasConfig cfg;
  cfg.num_queues = 0;
  EXPECT_THROW(cfg.thresholds(), std::invalid_argument);
  cfg.num_queues = 3;
  cfg.exp_factor = 1.0;
  EXPECT_THROW(cfg.thresholds(), std::invalid_argument);
  cfg.exp_factor = 10;
  cfg.first_threshold = 0;
  EXPECT_THROW(cfg.thresholds(), std::invalid_argument);
  cfg.explicit_thresholds = {5.0, 3.0};
  EXPECT_THROW(cfg.thresholds(), std::invalid_argument);
}

TEST(DClasConfig, ExplicitThresholdsOverride) {
  DClasConfig cfg;
  cfg.num_queues = 2;
  cfg.explicit_thresholds = {1 * kMB, 2 * kMB, 3 * kMB};
  const auto t = cfg.thresholds();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[1], 2 * kMB);
  EXPECT_DOUBLE_EQ(cfg.queueWeight(0), 4);  // K = 4 queues.
}

TEST(DClasConfig, QueueWeightsDecrease) {
  DClasConfig cfg;
  cfg.num_queues = 10;
  EXPECT_DOUBLE_EQ(cfg.queueWeight(0), 10);
  EXPECT_DOUBLE_EQ(cfg.queueWeight(9), 1);
}

TEST(DClasScheduler, QueueOfFollowsThresholds) {
  DClasConfig cfg;
  cfg.num_queues = 10;
  DClasScheduler sched(cfg);
  EXPECT_EQ(sched.queueOf(0), 0);
  EXPECT_EQ(sched.queueOf(9.99 * kMB), 0);
  EXPECT_EQ(sched.queueOf(10 * kMB), 1);
  EXPECT_EQ(sched.queueOf(99 * kMB), 1);
  EXPECT_EQ(sched.queueOf(100 * kMB), 2);
  EXPECT_EQ(sched.queueOf(1e18), 9);
}

TEST(DClasScheduler, RejectsNegativeSyncInterval) {
  DClasConfig cfg;
  cfg.sync_interval = -1;
  EXPECT_THROW(DClasScheduler{cfg}, std::invalid_argument);
}

TEST(DClasScheduler, RejectsNonFiniteSyncInterval) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    DClasConfig cfg;
    cfg.sync_interval = bad;
    EXPECT_THROW(DClasScheduler{cfg}, std::invalid_argument) << bad;
  }
}

// NaN compares false against every bound, so each check must ask for a
// finite value explicitly rather than only rejecting the bad side.
TEST(DClasConfig, RejectsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    DClasConfig exp_cfg;
    exp_cfg.exp_factor = bad;
    EXPECT_THROW(exp_cfg.thresholds(), std::invalid_argument) << bad;
    DClasConfig first_cfg;
    first_cfg.first_threshold = bad;
    EXPECT_THROW(first_cfg.thresholds(), std::invalid_argument) << bad;
    DClasConfig explicit_cfg;
    explicit_cfg.explicit_thresholds = {1 * kMB, bad};
    EXPECT_THROW(explicit_cfg.thresholds(), std::invalid_argument) << bad;
    explicit_cfg.explicit_thresholds = {bad};
    EXPECT_THROW(explicit_cfg.thresholds(), std::invalid_argument) << bad;
    DClasScheduler sched{DClasConfig{}};
    EXPECT_THROW(sched.setThresholds({1 * kMB, bad}), std::invalid_argument) << bad;
  }
}

// Two identical small coflows on one port: D-CLAS serves them FIFO (no
// interleaving), halving the first coflow's CCT vs fair sharing.
TEST(DClasScheduler, FifoWithinQueueAvoidsInterleaving) {
  DClasConfig cfg;
  cfg.first_threshold = 1000;  // Both coflows stay in Q1.
  DClasScheduler dclas(cfg);
  const auto wl = makeWorkload(2, {makeJob(0, 0, {FlowDef{0, 1, 4}}),
                                   makeJob(1, 0, {FlowDef{0, 1, 4}})});
  const auto result = runVerified(wl, unitFabric(2), dclas);
  EXPECT_NEAR(cctOf(result, {0, 0}), 4.0, 1e-6);
  EXPECT_NEAR(cctOf(result, {1, 0}), 8.0, 1e-6);

  PerFlowFairScheduler fair;
  const auto fair_result = runVerified(wl, unitFabric(2), fair);
  EXPECT_GT(avgCct(fair_result), avgCct(result) + 1.0);  // 8 vs 6.
}

// Threshold crossing demotes a large coflow; a newly arrived small coflow
// then dominates via the queue weights. Unit-capacity fabric, K=2,
// Q1^hi=5B, weights {2,1}.
TEST(DClasScheduler, DemotionAndWeightedSharing) {
  DClasConfig cfg;
  cfg.num_queues = 2;
  cfg.exp_factor = 10;
  cfg.first_threshold = 5;
  DClasScheduler dclas(cfg);
  const auto wl = makeWorkload(2, {makeJob(0, 0, {FlowDef{0, 1, 20}}),
                                   makeJob(1, 6.0, {FlowDef{0, 1, 3}})});
  const auto result = runVerified(wl, unitFabric(2), dclas);
  // C0 runs alone until t=6 (sent 6 >= 5, so already demoted to Q2 at
  // t=5). C1 arrives at 6 into Q1: weighted shares 2/3 vs 1/3.
  // C1 finishes at 6 + 3/(2/3) = 10.5 (CCT 4.5).
  // C0 has 20-6-4.5/3 = 12.5 left at t=10.5, full rate: done at 23.
  EXPECT_NEAR(cctOf(result, {1, 0}), 4.5, 1e-6);
  EXPECT_NEAR(cctOf(result, {0, 0}), 23.0, 1e-6);
}

// Same scenario under strict priority: the small coflow preempts fully.
TEST(DClasScheduler, StrictPriorityPreemptsFully) {
  DClasConfig cfg;
  cfg.num_queues = 2;
  cfg.first_threshold = 5;
  cfg.policy = DClasConfig::QueuePolicy::kStrictPriority;
  DClasScheduler dclas(cfg);
  const auto wl = makeWorkload(2, {makeJob(0, 0, {FlowDef{0, 1, 20}}),
                                   makeJob(1, 6.0, {FlowDef{0, 1, 3}})});
  const auto result = runVerified(wl, unitFabric(2), dclas);
  EXPECT_NEAR(cctOf(result, {1, 0}), 3.0, 1e-6);
  EXPECT_NEAR(cctOf(result, {0, 0}), 23.0, 1e-6);
}

// Weighted sharing guarantees starvation freedom: the demoted coflow keeps
// a positive rate while the high-priority queue is busy.
TEST(DClasScheduler, WeightedSharingAvoidsStarvation) {
  DClasConfig cfg;
  cfg.num_queues = 2;
  cfg.first_threshold = 5;
  DClasScheduler dclas(cfg);
  // A stream of small coflows that would starve the big one under strict
  // priority keeps arriving back-to-back.
  std::vector<coflow::JobSpec> jobs = {makeJob(0, 0, {FlowDef{0, 1, 30}})};
  for (int j = 1; j <= 8; ++j) {
    jobs.push_back(makeJob(j, 6.0 + 3.0 * (j - 1), {FlowDef{0, 1, 2}}));
  }
  const auto result = runVerified(makeWorkload(2, std::move(jobs)),
                                  unitFabric(2), dclas);
  // With weights {2,1}, the big coflow still gets 1/3 of the port during
  // contention: 6 + (30-6)/(1/3) = 78 is the worst case; it must beat the
  // strict-priority bound where it waits for all small coflows.
  EXPECT_LT(cctOf(result, {0, 0}), 79.0);
  // And every small coflow completes promptly (2B at >= 2/3 rate).
  for (int j = 1; j <= 8; ++j) {
    EXPECT_LT(cctOf(result, {j, 0}), 3.5);
  }
}

// With a huge sync interval the coordinator never learns sizes: every
// coflow stays in Q1 and the schedule degenerates to coordinated FIFO.
TEST(DClasScheduler, HugeSyncIntervalMeansFifo) {
  DClasConfig cfg;
  cfg.num_queues = 2;
  cfg.first_threshold = 5;
  cfg.sync_interval = 1e6;
  DClasScheduler dclas(cfg);
  const auto wl = makeWorkload(2, {makeJob(0, 0, {FlowDef{0, 1, 20}}),
                                   makeJob(1, 1.0, {FlowDef{0, 1, 3}})});
  const auto result = runVerified(wl, unitFabric(2), dclas);
  EXPECT_NEAR(cctOf(result, {0, 0}), 20.0, 1e-6);
  EXPECT_NEAR(cctOf(result, {1, 0}), 22.0, 1e-6);
}

// Delayed coordination: with Δ=3 a threshold crossed at t=5 only takes
// effect at the t=6 boundary.
TEST(DClasScheduler, DemotionWaitsForSyncBoundary) {
  DClasConfig cfg;
  cfg.num_queues = 2;
  cfg.first_threshold = 5;
  cfg.sync_interval = 3.0;
  DClasScheduler dclas(cfg);
  // C1 arrives at t=5.5: true sizes say C0 (sent 5.5) is already over the
  // threshold, but the last sync was at t=3 (known 3), so C0 is still in
  // Q1 ahead of C1 until the t=6 sync.
  const auto wl = makeWorkload(2, {makeJob(0, 0, {FlowDef{0, 1, 20}}),
                                   makeJob(1, 5.5, {FlowDef{0, 1, 3}})});
  const auto result = runVerified(wl, unitFabric(2), dclas);
  // t in [5.5, 6): C0 (Q1, FIFO head) keeps the full port; C1 waits.
  // t >= 6: C0 demoted; C1 gets 2/3. C1 finishes at 6 + 4.5 = 10.5.
  EXPECT_NEAR(cctOf(result, {1, 0}), 10.5 - 5.5, 1e-6);
}

// Instant coordination (Δ=0) by contrast lets C1 cut in right away.
TEST(DClasScheduler, InstantCoordinationPreemptsImmediately) {
  DClasConfig cfg;
  cfg.num_queues = 2;
  cfg.first_threshold = 5;
  cfg.sync_interval = 0;
  DClasScheduler dclas(cfg);
  const auto wl = makeWorkload(2, {makeJob(0, 0, {FlowDef{0, 1, 20}}),
                                   makeJob(1, 5.5, {FlowDef{0, 1, 3}})});
  const auto result = runVerified(wl, unitFabric(2), dclas);
  EXPECT_NEAR(cctOf(result, {1, 0}), 4.5, 1e-6);
}

// FIFO within a queue breaks ties between DAG-internal ids: the dependent
// coflow (higher internal id) is deprioritized (§5.1).
TEST(DClasScheduler, InternalIdBreaksFifoTies) {
  DClasConfig cfg;
  cfg.first_threshold = 1000;
  DClasScheduler dclas(cfg);
  coflow::JobSpec job;
  job.id = 0;
  job.arrival = 0;
  coflow::CoflowSpec parent;
  parent.id = {0, 0};
  parent.flows.push_back(coflow::FlowSpec{0, 1, 4, 0});
  coflow::CoflowSpec child;
  child.id = {0, 1};
  child.flows.push_back(coflow::FlowSpec{0, 2, 4, 0});  // Shares ingress 0.
  child.finishes_before.push_back(parent.id);
  job.coflows = {parent, child};
  const auto result = runVerified(makeWorkload(3, {job}), unitFabric(3), dclas);
  EXPECT_NEAR(cctOf(result, {0, 0}), 4.0, 1e-6);  // Parent first.
  const auto& child_rec = result.coflows[1];
  EXPECT_NEAR(child_rec.finish_own, 8.0, 1e-6);
}

// Behavioural non-clairvoyance: D-CLAS's allocation may not depend on
// remaining flow sizes, only on attained service. We run two workloads
// that differ solely in a pending coflow's total size and check that the
// *first* coflow's completion is identical.
TEST(DClasScheduler, AllocationIgnoresFutureSizes) {
  DClasConfig cfg;
  cfg.num_queues = 4;
  cfg.first_threshold = 6;
  cfg.exp_factor = 4;
  for (const double other_size : {8.0, 800.0}) {
    DClasScheduler dclas(cfg);
    const auto wl =
        makeWorkload(3, {makeJob(0, 0, {FlowDef{0, 1, 5}}),
                         makeJob(1, 0, {FlowDef{0, 2, other_size}})});
    const auto result = runVerified(wl, unitFabric(3), dclas);
    EXPECT_NEAR(cctOf(result, {0, 0}), 5.0, 1e-6)
        << "first coflow's fate depended on the other coflow's total size";
  }
}

// One allocation on a hand-built view in which queue 1's FIFO head has no
// gainers while a later member does: every flow of the head c1 leaves
// through ingress 0, which queue 0's c0 drains first (under strict
// priority at once; under weighted sharing in the excess pass, which
// hands c0 what queue 2 left of port 0). The residual is not drained
// after c1, so the fill must go on to c2. Unit fabric, K = 3 queues at
// thresholds 5 and 20 bytes, so the weighted shares are 1/2, 1/3 and 1/6.
std::vector<util::Rate> headWithoutGainersRates(DClasConfig::QueuePolicy policy) {
  const fabric::Fabric fabric(unitFabric(6));
  std::vector<sim::CoflowState> coflows(4);
  sim::FlowArena flows;
  std::vector<std::size_t> active;
  const auto add = [&](std::size_t c, coflow::PortId src, coflow::PortId dst) {
    sim::FlowState f;
    f.coflow_index = c;
    f.src = src;
    f.dst = dst;
    f.size = 100;
    f.started = true;
    coflows[c].flow_indices.push_back(flows.push(f));
    active.push_back(coflows[c].flow_indices.back());
  };
  const double sent[] = {0, 10, 12, 30};  // Queues 0, 1, 1, 2.
  for (std::size_t c = 0; c < coflows.size(); ++c) {
    coflows[c].id = {static_cast<coflow::JobId>(c), 0};
    coflows[c].sent = sent[c];
    coflows[c].released = true;
  }
  add(0, 0, 1);
  add(0, 0, 2);
  add(1, 0, 3);  // c1, queue 1's head: ingress 0 only.
  add(1, 0, 4);
  add(2, 5, 3);
  add(2, 4, 2);
  add(3, 2, 4);
  sim::ActiveCoflowIndex index;
  index.rebuild(flows, active);
  sim::SimView view;
  view.fabric = &fabric;
  view.coflows = &coflows;
  view.flows = &flows;
  view.active_flows = &active;
  view.active_index = &index;

  DClasConfig cfg;
  cfg.num_queues = 3;
  cfg.first_threshold = 5;
  cfg.exp_factor = 4;
  cfg.policy = policy;
  DClasScheduler dclas(cfg);
  dclas.reset(fabric);
  std::vector<util::Rate> rates(flows.size(), 0.0);
  dclas.allocate(view, rates);
  return rates;
}

// The rates are pinned bit for bit as the allocation computed them when
// the drain check ran after every coflow; it now runs only after a
// coflow that filled, and must not move a bit.
TEST(DClasScheduler, HeadWithoutGainersRatesArePinned) {
  const std::vector<util::Rate> weighted = {
      0x1.5555555555555p-2, 0x1.5555555555555p-2,  // c0: 1/4 + 1/12 excess.
      0x1.5555555555555p-3, 0x1.5555555555555p-3,  // c1: primary pass only.
      0x1.aaaaaaaaaaaaap-1, 0x1.5555555555555p-1,  // c2: fills in the excess.
      0x1.aaaaaaaaaaaaap-1};
  const std::vector<util::Rate> strict = {0x1p-1, 0x1p-1, 0x0p+0, 0x0p+0,
                                          0x1p+0, 0x1p-1, 0x1p+0};
  EXPECT_EQ(headWithoutGainersRates(DClasConfig::QueuePolicy::kWeightedFair), weighted);
  EXPECT_EQ(headWithoutGainersRates(DClasConfig::QueuePolicy::kStrictPriority), strict);
}

}  // namespace
}  // namespace aalo::sched
