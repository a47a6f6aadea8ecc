// Golden tests for the incremental simulator engine:
//  - legacy (re-allocate every round) vs incremental (allocation reuse,
//    slot-packed integration) engines must produce the same SimResult for
//    every scheduler, on randomized workloads with racks, multi-wave
//    flows, and Starts-After/Finishes-Before DAGs — and bit-identical
//    finish times on Facebook-shaped inputs and the golden trace;
//  - D-CLAS's incrementally maintained queue state must match the
//    retained full-rebuild oracle after arbitrary arrival / demotion /
//    completion sequences;
//  - reuse must actually happen (and be accounted) where the design says
//    it can: Δ > 0 sync boundaries with no demotion.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sched/dclas.h"
#include "sched/dcoflow.h"
#include "sched/fair.h"
#include "sched/sampling.h"
#include "sim/simulator.h"
#include "tests/helpers.h"
#include "util/rng.h"
#include "workload/deadlines.h"
#include "workload/facebook.h"
#include "workload/trace_io.h"

#ifndef AALO_TEST_DATA_DIR
#error "AALO_TEST_DATA_DIR must point at tests/data"
#endif

namespace aalo {
namespace {

// ---------------------------------------------------------------------------
// Legacy engine vs incremental engine
// ---------------------------------------------------------------------------

/// Randomized workload exercising everything the engine integrates:
/// multi-coflow jobs, multi-wave start offsets, Starts-After barriers and
/// Finishes-Before pipelines.
coflow::Workload dagWorkload(std::uint64_t seed, int ports, int jobs) {
  util::Rng rng(seed);
  std::vector<coflow::JobSpec> out;
  for (int j = 0; j < jobs; ++j) {
    coflow::JobSpec job;
    job.id = j;
    job.arrival = rng.uniform(0, 6);
    const int coflows = static_cast<int>(rng.uniformInt(1, 3));
    for (int c = 0; c < coflows; ++c) {
      coflow::CoflowSpec spec;
      spec.id = {j, c};
      if (rng.chance(0.3)) spec.arrival_offset = rng.uniform(0, 2);
      const int flows = static_cast<int>(rng.uniformInt(1, 6));
      for (int f = 0; f < flows; ++f) {
        spec.flows.push_back(coflow::FlowSpec{
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            rng.uniform(0.5, 30.0),
            // Multi-wave: a third of flows appear mid-coflow.
            rng.chance(0.35) ? rng.uniform(0.5, 5.0) : 0.0});
      }
      if (c > 0 && rng.chance(0.5)) {
        spec.starts_after.push_back(coflow::CoflowId{j, c - 1});
      } else if (c > 0 && rng.chance(0.4)) {
        spec.finishes_before.push_back(coflow::CoflowId{j, c - 1});
      }
      job.coflows.push_back(std::move(spec));
    }
    out.push_back(std::move(job));
  }
  return testing::makeWorkload(ports, std::move(out));
}

/// dagWorkload plus per-coflow deadlines (tight enough that dcoflow's
/// admission control actually rejects under contention).
coflow::Workload deadlineWorkload(std::uint64_t seed, int ports, int jobs) {
  coflow::Workload wl = dagWorkload(seed, ports, jobs);
  workload::DeadlineConfig dl;
  dl.slack = 0.8;
  dl.seed = seed;
  dl.port_capacity = 1.0;  // Matches testing::unitFabric.
  workload::assignDeadlines(wl, dl);
  return wl;
}

sim::SimResult runEngine(const coflow::Workload& wl, fabric::FabricConfig fc,
                         sim::Scheduler& sched, bool incremental) {
  sim::SimOptions opts;
  opts.verify_allocations = true;
  opts.incremental_engine = incremental;
  return sim::runSimulation(wl, fc, sched, opts);
}

void expectSameResult(const sim::SimResult& legacy, const sim::SimResult& incr,
                      const std::string& label) {
  constexpr double kTol = 1e-9;
  EXPECT_EQ(legacy.scheduler, incr.scheduler) << label;
  EXPECT_NEAR(legacy.makespan, incr.makespan, kTol) << label;
  ASSERT_EQ(legacy.coflows.size(), incr.coflows.size()) << label;
  for (std::size_t i = 0; i < legacy.coflows.size(); ++i) {
    EXPECT_EQ(legacy.coflows[i].id, incr.coflows[i].id) << label;
    EXPECT_NEAR(legacy.coflows[i].release, incr.coflows[i].release, kTol)
        << label << " coflow " << i;
    EXPECT_NEAR(legacy.coflows[i].finish_own, incr.coflows[i].finish_own, kTol)
        << label << " coflow " << i;
    EXPECT_NEAR(legacy.coflows[i].finish, incr.coflows[i].finish, kTol)
        << label << " coflow " << i;
    EXPECT_EQ(legacy.coflows[i].bytes, incr.coflows[i].bytes) << label;
    EXPECT_EQ(legacy.coflows[i].width, incr.coflows[i].width) << label;
  }
  ASSERT_EQ(legacy.jobs.size(), incr.jobs.size()) << label;
  for (std::size_t i = 0; i < legacy.jobs.size(); ++i) {
    EXPECT_NEAR(legacy.jobs[i].comm_finish, incr.jobs[i].comm_finish, kTol)
        << label << " job " << i;
  }
  // Both engines walk the same event sequence; only the bookkeeping
  // differs.
  EXPECT_EQ(legacy.allocation_rounds, incr.allocation_rounds) << label;
  EXPECT_EQ(legacy.reused_allocations, 0u) << label;
  EXPECT_EQ(incr.allocation_rounds, incr.allocate_calls + incr.reused_allocations)
      << label;
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, AllSchedulersFlatFabric) {
  const auto wl =
      dagWorkload(1000 + static_cast<std::uint64_t>(GetParam()), 6, 10);
  const auto fc = testing::unitFabric(6);
  const auto legacy_scheds = testing::allSchedulers(wl);
  const auto incr_scheds = testing::allSchedulers(wl);
  for (std::size_t s = 0; s < legacy_scheds.size(); ++s) {
    const auto legacy = runEngine(wl, fc, *legacy_scheds[s], false);
    const auto incr = runEngine(wl, fc, *incr_scheds[s], true);
    expectSameResult(legacy, incr, legacy_scheds[s]->name());
  }
}

TEST_P(EngineEquivalence, AllSchedulersRackFabric) {
  const auto wl =
      dagWorkload(2000 + static_cast<std::uint64_t>(GetParam()), 8, 10);
  fabric::FabricConfig fc = testing::unitFabric(8);
  fc.rack.ports_per_rack = 4;
  fc.rack.oversubscription = 2.0;
  const auto legacy_scheds = testing::allSchedulers(wl);
  const auto incr_scheds = testing::allSchedulers(wl);
  for (std::size_t s = 0; s < legacy_scheds.size(); ++s) {
    const auto legacy = runEngine(wl, fc, *legacy_scheds[s], false);
    const auto incr = runEngine(wl, fc, *incr_scheds[s], true);
    expectSameResult(legacy, incr, legacy_scheds[s]->name());
  }
}

// Deadlined workloads: dcoflow's admission decisions and sampling's
// estimate transitions must land on identical rounds in both engines, and
// deadline-blind schedulers must be bit-identical to the deadline-free
// case (the field is inert for them — covered by the golden pins).
TEST_P(EngineEquivalence, DeadlinedWorkloadAllSchedulers) {
  const auto wl =
      deadlineWorkload(6000 + static_cast<std::uint64_t>(GetParam()), 6, 10);
  const auto fc = testing::unitFabric(6);
  const auto legacy_scheds = testing::allSchedulers(wl);
  const auto incr_scheds = testing::allSchedulers(wl);
  for (std::size_t s = 0; s < legacy_scheds.size(); ++s) {
    const auto legacy = runEngine(wl, fc, *legacy_scheds[s], false);
    const auto incr = runEngine(wl, fc, *incr_scheds[s], true);
    expectSameResult(legacy, incr, legacy_scheds[s]->name());
    EXPECT_EQ(legacy.rejected_coflows, incr.rejected_coflows)
        << legacy_scheds[s]->name();
    EXPECT_EQ(legacy.deadline_misses, incr.deadline_misses)
        << legacy_scheds[s]->name();
  }
}

// The new schedulers across decision quanta Delta in {10ms, 100ms, 1s}:
// shorter quanta mean more wakeup rounds whose reuse handshake must stay
// exact (sampling orderings drift with attained service between rounds).
TEST_P(EngineEquivalence, NewSchedulerQuantumSweep) {
  const auto wl =
      deadlineWorkload(7000 + static_cast<std::uint64_t>(GetParam()), 6, 8);
  const auto fc = testing::unitFabric(6);
  for (const double quantum : {0.01, 0.1, 1.0}) {
    sched::SamplingConfig cfg;
    cfg.probe_fraction = 0.5;
    cfg.min_probes = 1;
    cfg.quantum = quantum;
    sched::SamplingScheduler legacy_sched(cfg);
    sched::SamplingScheduler incr_sched(cfg);
    const auto legacy = runEngine(wl, fc, legacy_sched, false);
    const auto incr = runEngine(wl, fc, incr_sched, true);
    expectSameResult(legacy, incr,
                     "sampling quantum=" + std::to_string(quantum));
  }
  for (const double margin : {1.0, 2.0}) {
    sched::DCoflowConfig cfg;
    cfg.admission_margin = margin;
    sched::DCoflowScheduler legacy_sched(cfg);
    sched::DCoflowScheduler incr_sched(cfg);
    const auto legacy = runEngine(wl, fc, legacy_sched, false);
    const auto incr = runEngine(wl, fc, incr_sched, true);
    expectSameResult(legacy, incr, "dcoflow margin=" + std::to_string(margin));
    // The admission log is part of the schedule: both engines must have
    // decided the same coflows the same way.
    ASSERT_EQ(legacy_sched.admissionLog().size(), incr_sched.admissionLog().size());
    for (std::size_t i = 0; i < legacy_sched.admissionLog().size(); ++i) {
      EXPECT_EQ(legacy_sched.admissionLog()[i].id, incr_sched.admissionLog()[i].id);
      EXPECT_EQ(legacy_sched.admissionLog()[i].admitted,
                incr_sched.admissionLog()[i].admitted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineEquivalence, ::testing::Range(0, 4));

// Same scheduler object used for a legacy run then an incremental run:
// reset() must clear all persistent/tracking state between engines.
TEST(EngineEquivalence, ResetClearsPersistentStateAcrossEngines) {
  const auto wl = dagWorkload(42, 5, 8);
  const auto fc = testing::unitFabric(5);
  sched::DClasConfig dcfg;
  dcfg.first_threshold = 8;
  dcfg.exp_factor = 4;
  dcfg.num_queues = 4;
  dcfg.sync_interval = 0.5;
  sched::DClasScheduler sched(dcfg);
  const auto legacy = runEngine(wl, fc, sched, false);
  const auto incr = runEngine(wl, fc, sched, true);
  const auto legacy2 = runEngine(wl, fc, sched, false);
  expectSameResult(legacy, incr, "shared-instance");
  expectSameResult(legacy, legacy2, "legacy-rerun");
}

// On a Facebook-mix workload with Δ > 0, sync-boundary wake-ups with no
// demotion must be classified as reuse rounds — the core perf claim.
TEST(EngineEquivalence, DelayedDClasActuallyReusesAllocations) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 60;
  cfg.num_ports = 20;
  cfg.seed = 5;
  cfg.mean_interarrival = 0.3;
  const auto wl = workload::generateFacebookWorkload(cfg);
  const fabric::FabricConfig fc{20, util::kGbps};
  sched::DClasConfig dcfg;
  dcfg.sync_interval = 0.05;
  sched::DClasScheduler sched(dcfg);
  sim::SimOptions opts;
  opts.incremental_engine = true;
  const auto result = sim::runSimulation(wl, fc, sched, opts);
  EXPECT_GT(result.reused_allocations, 0u);
  EXPECT_EQ(result.allocation_rounds,
            result.allocate_calls + result.reused_allocations);
  EXPECT_GT(result.heap_rebuilds, 0u);
}

// ---------------------------------------------------------------------------
// Event-vs-legacy fuzz: arrival bursts, simultaneous completions, ties
// ---------------------------------------------------------------------------

/// Adversarial workload for the event calendar: arrivals quantized to a
/// coarse grid (simultaneous release bursts), exact-duplicate flows on
/// the same port pair (identical rates, so completions tie to the bit),
/// and sub-slack flows that complete the instant they are released
/// (zero-duration events). Integer byte sizes keep equal-rate completion
/// times exactly representable, so ties are real, not epsilon-close.
coflow::Workload burstWorkload(std::uint64_t seed, int ports, int jobs) {
  util::Rng rng(seed);
  std::vector<coflow::JobSpec> out;
  for (int j = 0; j < jobs; ++j) {
    coflow::JobSpec job;
    job.id = j;
    // Four distinct instants: every job lands on top of others.
    job.arrival = static_cast<double>(rng.uniformInt(0, 3));
    const int coflows = static_cast<int>(rng.uniformInt(1, 2));
    for (int c = 0; c < coflows; ++c) {
      coflow::CoflowSpec spec;
      spec.id = {j, c};
      const int flows = static_cast<int>(rng.uniformInt(1, 5));
      coflow::FlowSpec prev{};
      for (int f = 0; f < flows; ++f) {
        if (f > 0 && rng.chance(0.4)) {
          // Exact duplicate: same ports, same bytes, same wave offset —
          // the flows stay rate-identical for their whole lifetime and
          // complete in the same round.
          spec.flows.push_back(prev);
          continue;
        }
        coflow::FlowSpec fs{
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            rng.chance(0.2) ? 1e-4  // Below completion slack: zero-duration.
                            : static_cast<double>(rng.uniformInt(1, 12)),
            rng.chance(0.3) ? static_cast<double>(rng.uniformInt(1, 3)) : 0.0};
        spec.flows.push_back(fs);
        prev = fs;
      }
      if (c > 0 && rng.chance(0.4)) {
        spec.starts_after.push_back(coflow::CoflowId{j, c - 1});
      }
      job.coflows.push_back(std::move(spec));
    }
    out.push_back(std::move(job));
  }
  return testing::makeWorkload(ports, std::move(out));
}

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, BurstsAndTiesMatchLegacy) {
  const auto wl =
      burstWorkload(5000 + static_cast<std::uint64_t>(GetParam()), 6, 12);
  const auto fc = testing::unitFabric(6);
  const auto legacy_scheds = testing::allSchedulers(wl);
  const auto incr_scheds = testing::allSchedulers(wl);
  for (std::size_t s = 0; s < legacy_scheds.size(); ++s) {
    const auto legacy = runEngine(wl, fc, *legacy_scheds[s], false);
    const auto incr = runEngine(wl, fc, *incr_scheds[s], true);
    expectSameResult(legacy, incr, legacy_scheds[s]->name());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineFuzz, ::testing::Range(0, 4));

// Same-time completions are processed in the legacy scan's slot order
// (DESIGN.md section 7), which makes tied outcomes deterministic: two
// incremental runs of a tie-heavy workload must agree bitwise, not just
// to tolerance.
TEST(EngineFuzz, TieBreakOrderIsDeterministic) {
  const auto wl = burstWorkload(77, 6, 12);
  const auto fc = testing::unitFabric(6);
  sched::DClasConfig dcfg;
  dcfg.first_threshold = 4;
  dcfg.exp_factor = 3;
  dcfg.num_queues = 4;
  sched::DClasScheduler first(dcfg);
  sched::DClasScheduler second(dcfg);
  const auto a = runEngine(wl, fc, first, true);
  const auto b = runEngine(wl, fc, second, true);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].id, b.coflows[i].id);
    EXPECT_EQ(a.coflows[i].finish, b.coflows[i].finish) << "coflow " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.allocation_rounds, b.allocation_rounds);
}

// Regression: the clock-resolution completion rule. A flow whose
// remaining transfer time is below one ulp of a large now_ predicts a
// completion at exactly now_; without the sweep's second clause both
// engines pick dt = 0 forever (observed as a live-lock on 100k-coflow
// traces around t = 1.3e5 s). The tiny flow here (1.5e-3 bytes — above
// the 1e-3-byte slack) released at t = 2e5 against a 1 GbE port has
// remaining/rate ~ 1.2e-11 s < ulp(2e5) ~ 2.9e-11 s, the exact
// live-lock shape.
TEST(EngineFuzz, SubUlpRemainingCompletesInsteadOfSpinning) {
  const fabric::FabricConfig fc{4, util::kGbps};
  std::vector<coflow::JobSpec> jobs;
  // 2.5e13 bytes at 1.25e8 B/s: finishes at exactly t = 200000 s.
  jobs.push_back(testing::makeJob(0, 0.0, {{0, 1, 2.5e13}}));
  jobs.push_back(testing::makeJob(1, 199999.5, {{2, 3, 1.5e-3}}));
  const auto wl = testing::makeWorkload(4, std::move(jobs));
  sim::SimOptions opts;
  opts.max_rounds = 100'000;  // Fails fast if the live-lock regresses.
  for (const bool incremental : {false, true}) {
    opts.incremental_engine = incremental;
    sched::PerFlowFairScheduler fair;
    const auto result = sim::runSimulation(wl, fc, fair, opts);
    ASSERT_EQ(result.coflows.size(), 2u) << "incremental=" << incremental;
    // The tiny flow's CCT collapses to (release of its last byte): its
    // finish is its release instant at clock resolution.
    EXPECT_NEAR(testing::cctOf(result, {1, 0}), 0.0, 1e-6)
        << "incremental=" << incremental;
    EXPECT_NEAR(result.makespan, 200000.0, 1e-6)
        << "incremental=" << incremental;
  }
}

// ---------------------------------------------------------------------------
// Exact pin: incremental engine bit-identical to legacy
// ---------------------------------------------------------------------------

// The incremental engine evaluates the legacy loop's own expressions over
// its slot columns (t_next minimum, integration, completion condition,
// sweep order), so on realistic inputs it must reproduce the legacy
// trajectory to the bit, not merely to expectSameResult's 1e-9. One test
// instance per (input, scheduler) keeps each run short under ctest -j.
constexpr std::size_t kPinnedSchedulers = 20;  ///< testing::allSchedulers().size()

void expectBitIdentical(const coflow::Workload& wl, util::Seconds delta,
                        std::size_t index, const std::string& input) {
  const fabric::FabricConfig fc{wl.num_ports, util::kGbps};
  constexpr double kMegabyte = 1e6;
  const auto legacy_scheds = testing::allSchedulers(wl, kMegabyte, delta);
  const auto incr_scheds = testing::allSchedulers(wl, kMegabyte, delta);
  ASSERT_EQ(legacy_scheds.size(), kPinnedSchedulers);
  const std::string label = input + " / " + legacy_scheds[index]->name();
  const auto legacy = runEngine(wl, fc, *legacy_scheds[index], false);
  const auto incr = runEngine(wl, fc, *incr_scheds[index], true);
  EXPECT_EQ(legacy.allocation_rounds, incr.allocation_rounds) << label;
  EXPECT_EQ(legacy.makespan, incr.makespan) << label;
  EXPECT_EQ(legacy.rejected_coflows, incr.rejected_coflows) << label;
  ASSERT_EQ(legacy.coflows.size(), incr.coflows.size()) << label;
  for (std::size_t i = 0; i < legacy.coflows.size(); ++i) {
    EXPECT_EQ(legacy.coflows[i].id, incr.coflows[i].id) << label;
    EXPECT_EQ(legacy.coflows[i].release, incr.coflows[i].release)
        << label << " coflow " << i;
    EXPECT_EQ(legacy.coflows[i].finish_own, incr.coflows[i].finish_own)
        << label << " coflow " << i;
    EXPECT_EQ(legacy.coflows[i].finish, incr.coflows[i].finish)
        << label << " coflow " << i;
  }
  ASSERT_EQ(legacy.jobs.size(), incr.jobs.size()) << label;
  for (std::size_t i = 0; i < legacy.jobs.size(); ++i) {
    EXPECT_EQ(legacy.jobs[i].comm_finish, incr.jobs[i].comm_finish)
        << label << " job " << i;
  }
}

coflow::Workload facebookPinWorkload() {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 60;
  cfg.num_ports = 20;
  cfg.seed = 11;
  cfg.mean_interarrival = 0.3;
  cfg.sender_cap = 8;
  cfg.receiver_cap = 8;
  return workload::generateFacebookWorkload(cfg);
}

class EngineExactPin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineExactPin, FacebookDeltaZero) {
  expectBitIdentical(facebookPinWorkload(), 0.0, GetParam(), "fb delta=0");
}

TEST_P(EngineExactPin, FacebookDeltaHalfSecond) {
  expectBitIdentical(facebookPinWorkload(), 0.5, GetParam(), "fb delta=0.5");
}

TEST_P(EngineExactPin, GoldenTrace) {
  const coflow::Workload wl = workload::readTraceFile(
      std::string(AALO_TEST_DATA_DIR) + "/golden_200.trace");
  ASSERT_EQ(wl.coflowCount(), 200u);
  expectBitIdentical(wl, 0.0, GetParam(), "golden_200");
}

INSTANTIATE_TEST_SUITE_P(EveryScheduler, EngineExactPin,
                         ::testing::Range<std::size_t>(0, kPinnedSchedulers));

// ---------------------------------------------------------------------------
// D-CLAS incremental queue state vs full-rebuild oracle
// ---------------------------------------------------------------------------

/// Forwards everything to an inner DClasScheduler and, after every
/// allocation round, checks the incrementally maintained queues against
/// the from-scratch partition+sort oracle.
class QueueOracleScheduler final : public sim::Scheduler {
 public:
  explicit QueueOracleScheduler(sched::DClasConfig config) : inner_(config) {}

  std::string name() const override { return "queue-oracle"; }
  void reset(const fabric::Fabric& fabric) override { inner_.reset(fabric); }
  void onCoflowFinished(const sim::SimView& view, std::size_t ci) override {
    inner_.onCoflowFinished(view, ci);
  }
  void onFlowStarted(const sim::SimView& view, std::size_t fi) override {
    inner_.onFlowStarted(view, fi);
  }
  void onFlowCompleted(const sim::SimView& view, std::size_t fi) override {
    inner_.onFlowCompleted(view, fi);
  }
  std::uint64_t scheduleEpoch(const sim::SimView& view) override {
    return inner_.scheduleEpoch(view);
  }
  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override {
    inner_.allocate(view, rates);
    ++rounds_checked_;
    ASSERT_TRUE(inner_.tracking(view)) << "round " << rounds_checked_;
    EXPECT_EQ(inner_.queueSnapshot(), inner_.referenceQueueSnapshot(view))
        << "round " << rounds_checked_;
  }
  util::Seconds nextWakeup(const sim::SimView& view) override {
    return inner_.nextWakeup(view);
  }
  std::size_t roundsChecked() const { return rounds_checked_; }

 private:
  sched::DClasScheduler inner_;
  std::size_t rounds_checked_ = 0;
};

class DClasQueueOracle : public ::testing::TestWithParam<int> {};

TEST_P(DClasQueueOracle, IncrementalQueuesMatchRebuild) {
  // Small thresholds + waves + Δ variants drive plenty of arrivals,
  // demotions (instant and boundary-delayed), and completions.
  const auto wl =
      dagWorkload(3000 + static_cast<std::uint64_t>(GetParam()), 6, 12);
  const auto fc = testing::unitFabric(6);
  for (const util::Seconds delta : {0.0, 0.3}) {
    sched::DClasConfig dcfg;
    dcfg.first_threshold = 4;
    dcfg.exp_factor = 3;
    dcfg.num_queues = 5;
    dcfg.sync_interval = delta;
    QueueOracleScheduler oracle(dcfg);
    sim::SimOptions opts;
    opts.incremental_engine = true;
    const auto result = sim::runSimulation(wl, fc, oracle, opts);
    EXPECT_EQ(result.coflows.size(), wl.coflowCount());
    EXPECT_GT(oracle.roundsChecked(), 0u);
  }
}

TEST_P(DClasQueueOracle, StrictPolicyQueuesMatchRebuild) {
  const auto wl =
      dagWorkload(4000 + static_cast<std::uint64_t>(GetParam()), 6, 10);
  const auto fc = testing::unitFabric(6);
  sched::DClasConfig dcfg;
  dcfg.first_threshold = 4;
  dcfg.exp_factor = 3;
  dcfg.num_queues = 5;
  dcfg.policy = sched::DClasConfig::QueuePolicy::kStrictPriority;
  QueueOracleScheduler oracle(dcfg);
  sim::SimOptions opts;
  opts.incremental_engine = true;
  const auto result = sim::runSimulation(wl, fc, oracle, opts);
  EXPECT_EQ(result.coflows.size(), wl.coflowCount());
  EXPECT_GT(oracle.roundsChecked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DClasQueueOracle, ::testing::Range(0, 4));

}  // namespace
}  // namespace aalo
