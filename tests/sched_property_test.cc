// Property suite for the scheduler zoo (ctest label: sched).
//
// Three families of invariants pin the new baselines:
//  1. Sampling: probe-based size estimates converge to the true sizes as
//     the probe fraction approaches 1 (and are *exact* at 1.0 — every
//     flow is a probe, and a finished flow's attained service is its
//     size).
//  2. DCoflow: the admission log never contains an admitted coflow whose
//     sigma-order completion bound exceeded its deadline at decision
//     time, deadline-free coflows are never rejected, and rejection never
//     prevents a run from terminating.
//  3. LP bound: the offline lower bound (sched/lp_bound.h) never exceeds
//     any live scheduler's achieved total CCT, across 200 fuzzed traces
//     with barriers, pipelines, multi-wave offsets, and deadlines.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "sched/dclas.h"
#include "sched/dcoflow.h"
#include "sched/fair.h"
#include "sched/las.h"
#include "sched/lp_bound.h"
#include "sched/registry.h"
#include "sched/sampling.h"
#include "sched/varys.h"
#include "sim/simulator.h"
#include "tests/helpers.h"
#include "util/rng.h"
#include "workload/deadlines.h"
#include "workload/facebook.h"

namespace aalo {
namespace {

// ---------------------------------------------------------------------------
// 1. Sampling estimate convergence
// ---------------------------------------------------------------------------

/// Mean relative estimate error over a run's finished coflows; coflows
/// that finished before their estimate matured count as fully wrong
/// (error 1) — probing that never converges must not look good.
double meanEstimateError(const std::vector<sched::SamplingEstimate>& log) {
  if (log.empty()) return 0;
  double total = 0;
  for (const sched::SamplingEstimate& f : log) {
    if (!f.mature || f.actual <= 0) {
      total += 1.0;
    } else {
      total += std::fabs(f.estimated - f.actual) / f.actual;
    }
  }
  return total / static_cast<double>(log.size());
}

TEST(SchedProperty, SamplingEstimatesConvergeWithProbeFraction) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 40;
  cfg.num_ports = 12;
  cfg.seed = 11;
  cfg.mean_interarrival = 0.4;
  const coflow::Workload wl = workload::generateFacebookWorkload(cfg);

  const double fractions[] = {0.1, 0.3, 0.6, 1.0};
  std::vector<double> errors;
  for (const double fraction : fractions) {
    sched::SamplingConfig sc;
    sc.probe_fraction = fraction;
    sc.min_probes = 1;
    sc.quantum = 0.5;
    sched::SamplingScheduler scheduler(sc);
    const sim::SimResult result = sim::runSimulation(
        wl, fabric::FabricConfig{cfg.num_ports, util::kGbps}, scheduler);
    EXPECT_EQ(result.coflows.size(), wl.coflowCount());
    EXPECT_EQ(scheduler.finishLog().size(), wl.coflowCount());
    errors.push_back(meanEstimateError(scheduler.finishLog()));
  }
  // Fully probed => exact: every flow is a probe and completed probes
  // report their true size.
  EXPECT_LE(errors.back(), 1e-12);
  // More probes => better estimates (deterministic workload, so this is
  // a hard ordering, not a statistical one).
  for (std::size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i], errors[i - 1] + 1e-12)
        << "probe fraction " << fractions[i] << " estimated worse than "
        << fractions[i - 1];
  }
  EXPECT_LT(errors.back(), errors.front());
}

// ---------------------------------------------------------------------------
// 2. DCoflow admission-control invariants
// ---------------------------------------------------------------------------

TEST(SchedProperty, DCoflowNeverAdmitsProvablyLateCoflows) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::FacebookConfig cfg;
    cfg.num_jobs = 30;
    cfg.num_ports = 10;
    cfg.seed = seed;
    cfg.mean_interarrival = 0.3;
    cfg.deadline_slack = 0.6;
    const coflow::Workload wl = workload::generateFacebookWorkload(cfg);

    sched::DCoflowScheduler scheduler;
    const sim::SimResult result = sim::runSimulation(
        wl, fabric::FabricConfig{cfg.num_ports, util::kGbps}, scheduler);

    // Every coflow got exactly one decision, and the run terminated with
    // all of them completed (rejection demotes, it does not starve).
    EXPECT_EQ(scheduler.admissionLog().size(), wl.coflowCount()) << seed;
    EXPECT_EQ(result.coflows.size(), wl.coflowCount()) << seed;

    std::size_t rejected = 0;
    for (const sched::AdmissionDecision& d : scheduler.admissionLog()) {
      if (d.admitted) {
        // The admission test itself: an admitted deadlined coflow's
        // sigma-order bound respected its deadline at decision time.
        if (d.deadline_abs < sim::kInfTime) {
          EXPECT_LE(d.bound, d.deadline_abs + 1e-6)
              << "seed " << seed << " coflow " << d.id.toString();
        }
      } else {
        ++rejected;
        // Deadline-free coflows sort last in sigma-order and can push
        // nobody — rejecting one is always a bug.
        EXPECT_LT(d.deadline_abs, sim::kInfTime)
            << "seed " << seed << " rejected deadline-free coflow";
      }
    }
    EXPECT_EQ(result.rejected_coflows, rejected) << seed;
    EXPECT_EQ(scheduler.rejectedCoflows(), rejected) << seed;
  }
}

// Deterministic two-coflow overload: both want the same port and the same
// deadline; sigma-order admits the first and must reject the second.
TEST(SchedProperty, DCoflowRejectsTheCoflowThatCannotFit) {
  coflow::JobSpec job;
  job.id = 0;
  job.arrival = 0;
  for (int c = 0; c < 2; ++c) {
    coflow::CoflowSpec spec;
    spec.id = {0, c};
    spec.deadline = 10.05;  // Isolated time is 10 s at unit capacity.
    spec.flows.push_back(coflow::FlowSpec{0, 1, 10.0, 0.0});
    job.coflows.push_back(std::move(spec));
  }
  const coflow::Workload wl =
      testing::makeWorkload(3, std::vector<coflow::JobSpec>{job});

  sched::DCoflowScheduler scheduler;
  const sim::SimResult result =
      sim::runSimulation(wl, testing::unitFabric(3), scheduler);

  ASSERT_EQ(scheduler.admissionLog().size(), 2u);
  EXPECT_TRUE(scheduler.admissionLog()[0].admitted);
  EXPECT_FALSE(scheduler.admissionLog()[1].admitted);
  EXPECT_EQ(result.rejected_coflows, 1u);
  EXPECT_EQ(result.deadline_coflows, 2u);
  // The admitted coflow makes its deadline; the rejected one runs in the
  // background afterwards, missing its deadline but still completing.
  EXPECT_EQ(result.deadline_misses, 1u);
  ASSERT_EQ(result.coflows.size(), 2u);
  EXPECT_GT(result.makespan, 19.0);  // Background service actually ran.
}

/// A rack fabric of unit ports: `ports` grouped `per_rack` to a rack,
/// rack links oversubscribed `oversub`:1.
fabric::FabricConfig rackFabric(int ports, int per_rack, double oversub) {
  fabric::FabricConfig fc = testing::unitFabric(ports);
  fc.rack.ports_per_rack = per_rack;
  fc.rack.oversubscription = oversub;
  return fc;
}

// Only a rack uplink makes the second coflow late: the two coflows use
// disjoint ports and rack downlinks but share rack 0's uplink (4 ports x 1
// / 2:1 = 2). Each alone takes 10 s; together the uplink needs 20 s for
// their 40 bytes. A port-only bound admits both and the second misses its
// deadline; the rack-aware bound rejects it, and the admitted one makes
// its deadline.
TEST(SchedProperty, DCoflowRejectsACoflowOnlyARackUplinkMakesLate) {
  coflow::JobSpec job;
  job.id = 0;
  job.arrival = 0;
  for (int c = 0; c < 2; ++c) {
    coflow::CoflowSpec spec;
    spec.id = {0, c};
    spec.deadline = 10.5;
    const coflow::PortId dst = c == 0 ? 4 : 8;  // Rack 1 or rack 2.
    for (coflow::PortId k = 0; k < 2; ++k) {
      spec.flows.push_back(coflow::FlowSpec{static_cast<coflow::PortId>(2 * c + k),
                                            static_cast<coflow::PortId>(dst + k), 10.0,
                                            0.0});
    }
    job.coflows.push_back(std::move(spec));
  }
  const coflow::Workload wl =
      testing::makeWorkload(12, std::vector<coflow::JobSpec>{job});

  sched::DCoflowScheduler scheduler;
  const sim::SimResult result =
      testing::runVerified(wl, rackFabric(12, 4, 2.0), scheduler);

  ASSERT_EQ(scheduler.admissionLog().size(), 2u);
  EXPECT_TRUE(scheduler.admissionLog()[0].admitted);
  EXPECT_FALSE(scheduler.admissionLog()[1].admitted);
  EXPECT_NEAR(scheduler.admissionLog()[1].bound, 20.0, 1e-9);
  EXPECT_EQ(result.rejected_coflows, 1u);
  // The only miss is the rejected coflow: the admitted one finishes on
  // time.
  EXPECT_EQ(result.deadline_misses, 1u);
  EXPECT_LE(testing::cctOf(result, {0, 0}), 10.5);
}

// ---------------------------------------------------------------------------
// 3. LP bound soundness on fuzzed traces
// ---------------------------------------------------------------------------

/// Small randomized workload exercising everything the bound must stay
/// sound against: barriers (unknown releases), pipelines (finish
/// adjustment), multi-wave start offsets, and deadlines (admission
/// rejection inflates CCTs — the bound must stay below even those runs).
coflow::Workload fuzzWorkload(std::uint64_t seed) {
  util::Rng rng(seed);
  const int ports = static_cast<int>(rng.uniformInt(3, 6));
  const int jobs = static_cast<int>(rng.uniformInt(2, 5));
  std::vector<coflow::JobSpec> out;
  for (int j = 0; j < jobs; ++j) {
    coflow::JobSpec job;
    job.id = j;
    job.arrival = rng.uniform(0, 4);
    const int coflows = static_cast<int>(rng.uniformInt(1, 3));
    for (int c = 0; c < coflows; ++c) {
      coflow::CoflowSpec spec;
      spec.id = {j, c};
      if (rng.chance(0.3)) spec.arrival_offset = rng.uniform(0, 2);
      const int flows = static_cast<int>(rng.uniformInt(1, 5));
      for (int f = 0; f < flows; ++f) {
        spec.flows.push_back(coflow::FlowSpec{
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            rng.uniform(0.5, 20.0), rng.chance(0.3) ? rng.uniform(0.5, 3.0) : 0.0});
      }
      if (c > 0 && rng.chance(0.4)) {
        spec.starts_after.push_back(coflow::CoflowId{j, c - 1});
      } else if (c > 0 && rng.chance(0.4)) {
        spec.finishes_before.push_back(coflow::CoflowId{j, c - 1});
      }
      job.coflows.push_back(std::move(spec));
    }
    out.push_back(std::move(job));
  }
  coflow::Workload wl = testing::makeWorkload(ports, std::move(out));
  if (rng.chance(0.5)) {
    workload::DeadlineConfig dl;
    dl.slack = rng.uniform(0.2, 1.5);
    dl.seed = seed;
    dl.port_capacity = 1.0;  // Unit fabric below.
    workload::assignDeadlines(wl, dl);
  }
  return wl;
}

std::vector<std::unique_ptr<sim::Scheduler>> boundCheckedSchedulers() {
  std::vector<std::unique_ptr<sim::Scheduler>> out;
  out.push_back(std::make_unique<sched::DClasScheduler>());
  out.push_back(std::make_unique<sched::PerFlowFairScheduler>());
  out.push_back(std::make_unique<sched::VarysScheduler>());
  sched::LasConfig las_cfg;
  las_cfg.quantum = 0.5;
  out.push_back(std::make_unique<sched::DecentralizedLasScheduler>(las_cfg));
  sched::SamplingConfig sampling_cfg;
  sampling_cfg.min_probes = 1;
  sampling_cfg.quantum = 0.5;
  out.push_back(std::make_unique<sched::SamplingScheduler>(sampling_cfg));
  out.push_back(std::make_unique<sched::DCoflowScheduler>());
  return out;
}

TEST(SchedProperty, LpBoundNeverExceedsAchievedTotalCct) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const coflow::Workload wl = fuzzWorkload(9000 + seed);
    const fabric::FabricConfig fc =
        testing::unitFabric(wl.num_ports);
    const sched::LpBoundResult bound = sched::computeCctLowerBound(wl, fc);
    EXPECT_GE(bound.total_cct, 0.0);
    EXPECT_GE(bound.total_cct, bound.isolation_total - 1e-12);

    for (const auto& scheduler : boundCheckedSchedulers()) {
      const sim::SimResult result = sim::runSimulation(wl, fc, *scheduler);
      const double achieved = result.totalCct();
      // The engine's event batching (util::kEps) can shave O(eps) per
      // coflow off a CCT; anything beyond that is a soundness bug in the
      // bound.
      EXPECT_GE(achieved, bound.total_cct * (1.0 - 1e-9) - 1e-6)
          << "seed " << seed << " scheduler " << scheduler->name()
          << " achieved " << achieved << " < bound " << bound.total_cct;
    }
  }
}

// One coflow of four 10-byte flows out of rack 0 and one of two 5-byte
// flows on two of the same ports, both released at 0, on a 2:1 fabric
// (rack link 2). Ports alone bound the total CCT at 20 s (SRPT on port 2:
// 5 + 15); the rack 0 uplink is one machine carrying 40 + 10 bytes at 2,
// so SRPT there gives 5 + 25 = 30 s, which SEBF achieves.
TEST(SchedProperty, LpBoundSeesRackLinks) {
  coflow::JobSpec job;
  job.id = 0;
  job.arrival = 0;
  coflow::CoflowSpec wide;
  wide.id = {0, 0};
  for (coflow::PortId k = 0; k < 4; ++k) {
    wide.flows.push_back(coflow::FlowSpec{k, static_cast<coflow::PortId>(4 + k), 10.0, 0.0});
  }
  coflow::CoflowSpec narrow;
  narrow.id = {0, 1};
  for (coflow::PortId k = 2; k < 4; ++k) {
    narrow.flows.push_back(coflow::FlowSpec{k, static_cast<coflow::PortId>(4 + k), 5.0, 0.0});
  }
  job.coflows = {wide, narrow};
  const coflow::Workload wl = testing::makeWorkload(8, std::vector<coflow::JobSpec>{job});

  const fabric::FabricConfig racks = rackFabric(8, 4, 2.0);
  const sched::LpBoundResult port_only =
      sched::computeCctLowerBound(wl, testing::unitFabric(8));
  const sched::LpBoundResult bound = sched::computeCctLowerBound(wl, racks);
  // Within the engine's completion slack (1e-3 bytes per flow).
  EXPECT_NEAR(port_only.total_cct, 20.0, 1e-2);
  EXPECT_NEAR(bound.total_cct, 30.0, 1e-2);
  EXPECT_GT(bound.total_cct, port_only.total_cct + 1.0);

  sched::VarysScheduler varys;
  const double achieved = testing::runVerified(wl, racks, varys).totalCct();
  EXPECT_NEAR(achieved, 30.0, 1e-6);
  EXPECT_GE(achieved, bound.total_cct * (1.0 - 1e-9) - 1e-6);
}

// Rack cases of sections 2 and 3: the fuzzed traces on fabrics of
// two-port racks at 2:1 and 4:1, under every registered scheduler.
TEST(SchedProperty, RackFabricsKeepAdmissionAndLpBoundSound) {
  for (const double oversub : {2.0, 4.0}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      coflow::Workload wl = fuzzWorkload(9000 + seed);
      wl.num_ports += wl.num_ports % 2;  // Whole racks of two.
      const fabric::FabricConfig fc = rackFabric(wl.num_ports, 2, oversub);
      SCOPED_TRACE("oversubscription " + std::to_string(oversub) + " seed " +
                   std::to_string(seed));
      const sched::LpBoundResult bound = sched::computeCctLowerBound(wl, fc);
      EXPECT_GE(bound.total_cct,
                sched::computeCctLowerBound(wl, testing::unitFabric(wl.num_ports))
                        .total_cct -
                    1e-9);

      for (const sched::RegisteredScheduler& entry : sched::registeredSchedulers()) {
        auto scheduler = sched::makeScheduler(entry.name, wl);
        ASSERT_NE(scheduler, nullptr) << entry.name;
        const sim::SimResult result = testing::runVerified(wl, fc, *scheduler);
        ASSERT_EQ(result.coflows.size(), wl.coflowCount()) << entry.name;
        EXPECT_GE(result.totalCct(), bound.total_cct * (1.0 - 1e-9) - 1e-6)
            << entry.name << " achieved " << result.totalCct() << " < bound "
            << bound.total_cct;
      }

      sched::DCoflowScheduler dcoflow;
      const sim::SimResult result = testing::runVerified(wl, fc, dcoflow);
      std::size_t rejected = 0;
      for (const sched::AdmissionDecision& d : dcoflow.admissionLog()) {
        if (!d.admitted) {
          ++rejected;
          EXPECT_LT(d.deadline_abs, sim::kInfTime) << "rejected deadline-free coflow";
        } else if (d.deadline_abs < sim::kInfTime) {
          EXPECT_LE(d.bound, d.deadline_abs + 1e-6) << d.id.toString();
        }
      }
      EXPECT_EQ(dcoflow.admissionLog().size(), wl.coflowCount());
      EXPECT_EQ(result.rejected_coflows, rejected);
    }
  }
}

}  // namespace
}  // namespace aalo
