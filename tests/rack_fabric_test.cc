// Tests for the §8 "In-Network Bottlenecks" extension: rack-grouped ports
// with oversubscribed rack-to-core links.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/maxmin.h"
#include "sched/clas.h"
#include "sched/dclas.h"
#include "sched/fair.h"
#include "sched/sampling.h"
#include "sched/varys.h"
#include "tests/helpers.h"
#include "util/rng.h"
#include "workload/facebook.h"

namespace aalo::fabric {
namespace {

using aalo::testing::FlowDef;
using aalo::testing::cctOf;
using aalo::testing::makeJob;
using aalo::testing::makeWorkload;
using aalo::testing::runVerified;

FabricConfig rackFabric(int ports, int per_rack, double oversub,
                        util::Rate cap = 1.0) {
  FabricConfig cfg;
  cfg.num_ports = ports;
  cfg.port_capacity = cap;
  cfg.rack.ports_per_rack = per_rack;
  cfg.rack.oversubscription = oversub;
  return cfg;
}

TEST(RackFabric, TopologyAccessors) {
  Fabric f(rackFabric(8, 4, 2.0, 10.0));
  EXPECT_TRUE(f.hasRacks());
  EXPECT_EQ(f.numRacks(), 2);
  EXPECT_EQ(f.rackOf(0), 0);
  EXPECT_EQ(f.rackOf(3), 0);
  EXPECT_EQ(f.rackOf(4), 1);
  EXPECT_TRUE(f.crossRack(0, 4));
  EXPECT_FALSE(f.crossRack(0, 3));
  // Rack link = 4 ports * 10 / oversub 2 = 20.
  EXPECT_DOUBLE_EQ(f.rackUplinkCapacity(0), 20.0);
  EXPECT_DOUBLE_EQ(f.rackDownlinkCapacity(1), 20.0);
}

TEST(RackFabric, ValidatesConfig) {
  EXPECT_THROW(Fabric(rackFabric(8, 3, 2.0)), std::invalid_argument);  // 8 % 3.
  EXPECT_THROW(Fabric(rackFabric(8, 4, 0.0)), std::invalid_argument);
  Fabric f(rackFabric(8, 4, 2.0));
  EXPECT_THROW(f.rackUplinkCapacity(2), std::out_of_range);
}

TEST(RackFabric, NoRacksByDefault) {
  Fabric f(FabricConfig{4, 1.0});
  EXPECT_FALSE(f.hasRacks());
  EXPECT_EQ(f.numRacks(), 0);
  EXPECT_FALSE(f.crossRack(0, 3));
}

TEST(RackFabric, ResidualTracksRackLinks) {
  Fabric f(rackFabric(8, 4, 4.0, 10.0));  // Rack link = 10.
  ResidualCapacity r(f);
  EXPECT_DOUBLE_EQ(r.available(0, 4), 10.0);  // Cross-rack: rack-limited.
  EXPECT_DOUBLE_EQ(r.available(0, 3), 10.0);  // In-rack: port-limited.
  r.consume(0, 4, 6.0);
  EXPECT_DOUBLE_EQ(r.rackUplink(0), 4.0);
  EXPECT_DOUBLE_EQ(r.rackDownlink(1), 4.0);
  EXPECT_DOUBLE_EQ(r.available(1, 5), 4.0);  // Same rack pair: shared link.
  // The one resource vector: [ingress 8 | egress 8 | uplinks 2 | downlinks 2].
  ASSERT_EQ(r.left().size(), f.numResources());
  EXPECT_EQ(f.numResources(), 20u);
  EXPECT_DOUBLE_EQ(r.left()[f.uplinkResource(0)], 4.0);
  EXPECT_DOUBLE_EQ(r.left()[f.downlinkResource(1)], 4.0);
  EXPECT_DOUBLE_EQ(r.left()[f.uplinkResource(1)], 10.0);
  EXPECT_DOUBLE_EQ(r.left()[f.egressResource(4)], 4.0);
}

TEST(RackFabric, InRackTrafficDoesNotConsumeRackLinks) {
  Fabric f(rackFabric(8, 4, 4.0, 10.0));
  ResidualCapacity r(f);
  r.consume(0, 3, 10.0);
  EXPECT_DOUBLE_EQ(r.rackUplink(0), 10.0);
  EXPECT_DOUBLE_EQ(r.ingress(0), 0.0);
}

TEST(RackMaxMin, CrossRackFlowsShareTheUplink) {
  // 2 racks of 4 ports at 10 each; rack links 10 (4:1 oversubscribed).
  Fabric f(rackFabric(8, 4, 4.0, 10.0));
  // Four cross-rack flows from distinct ports of rack 0 to distinct ports
  // of rack 1: each port could carry 10, but the rack uplink (10) caps
  // the total — max-min gives 2.5 each.
  std::vector<Demand> demands;
  for (int i = 0; i < 4; ++i) {
    demands.push_back(Demand{i, 4 + i, 1.0});
  }
  const auto rates = maxMinAllocate(demands, f);
  for (const auto rate : rates) EXPECT_NEAR(rate, 2.5, 1e-9);
}

TEST(RackMaxMin, InRackFlowsUnaffectedByUplinkPressure) {
  Fabric f(rackFabric(8, 4, 4.0, 10.0));
  std::vector<Demand> demands = {
      Demand{0, 4, 1.0},  // Cross-rack.
      Demand{1, 2, 1.0},  // In-rack: full port rate.
  };
  const auto rates = maxMinAllocate(demands, f);
  EXPECT_NEAR(rates[0], 10.0, 1e-9);
  EXPECT_NEAR(rates[1], 10.0, 1e-9);
}

TEST(RackMaxMin, MixedContention) {
  Fabric f(rackFabric(8, 4, 4.0, 10.0));
  // Two cross-rack flows share the uplink (10): 5 each; a third flow from
  // the same ingress as the first also contends on port 0 (10): flow 0
  // gets min(port share, uplink share).
  std::vector<Demand> demands = {
      Demand{0, 4, 1.0},  // Cross-rack via port 0.
      Demand{1, 5, 1.0},  // Cross-rack via port 1.
      Demand{0, 2, 1.0},  // In-rack via port 0.
  };
  const auto rates = maxMinAllocate(demands, f);
  // Port 0 fair share = 5 each; uplink share = 5 each: all consistent.
  EXPECT_NEAR(rates[0], 5.0, 1e-9);
  EXPECT_NEAR(rates[1], 5.0, 1e-9);
  EXPECT_NEAR(rates[2], 5.0, 1e-9);
}

TEST(RackSimulation, OversubscriptionStretchesCrossRackCcts) {
  sched::PerFlowFairScheduler fair;
  const auto wl = makeWorkload(8, {makeJob(0, 0, {FlowDef{0, 4, 40}}),
                                   makeJob(1, 0, {FlowDef{1, 2, 40}})});
  // Non-blocking: both finish at 40/1.0 = 40.
  const auto flat = runVerified(wl, aalo::testing::unitFabric(8), fair);
  EXPECT_NEAR(cctOf(flat, {0, 0}), 40.0, 1e-6);
  // 4:1 oversubscribed: the cross-rack coflow is capped at rack rate 1*4/4
  // = 1.0... use 8:1 to see the stretch: rack link = 0.5.
  const auto over = runVerified(wl, rackFabric(8, 4, 8.0), fair);
  EXPECT_NEAR(cctOf(over, {0, 0}), 80.0, 1e-6);   // Cross-rack: halved rate.
  EXPECT_NEAR(cctOf(over, {1, 0}), 40.0, 1e-6);   // In-rack: unchanged.
}

TEST(RackSimulation, SchedulersStayFeasibleOnOversubscribedFabric) {
  // The simulator's verifier checks rack caps; run a contended workload
  // under several schedulers.
  std::vector<coflow::JobSpec> jobs;
  util::Rng rng(3);
  for (int j = 0; j < 12; ++j) {
    coflow::JobSpec job;
    job.id = j;
    job.arrival = rng.uniform(0, 3);
    coflow::CoflowSpec spec;
    spec.id = {j, 0};
    const int flows = static_cast<int>(rng.uniformInt(1, 5));
    for (int k = 0; k < flows; ++k) {
      spec.flows.push_back(coflow::FlowSpec{
          static_cast<coflow::PortId>(rng.uniformInt(0, 7)),
          static_cast<coflow::PortId>(rng.uniformInt(0, 7)), rng.uniform(1, 30), 0});
    }
    job.coflows.push_back(std::move(spec));
    jobs.push_back(std::move(job));
  }
  const auto wl = makeWorkload(8, std::move(jobs));
  const auto fc = rackFabric(8, 4, 4.0);

  sched::PerFlowFairScheduler fair;
  sched::DClasConfig dcfg;
  dcfg.first_threshold = 20;
  dcfg.num_queues = 3;
  dcfg.exp_factor = 4;
  sched::DClasScheduler dclas(dcfg);
  sched::VarysScheduler varys;
  for (sim::Scheduler* s : {static_cast<sim::Scheduler*>(&fair),
                            static_cast<sim::Scheduler*>(&dclas),
                            static_cast<sim::Scheduler*>(&varys)}) {
    const auto result = runVerified(wl, fc, *s);
    EXPECT_EQ(result.coflows.size(), wl.coflowCount()) << s->name();
  }
}

TEST(RackSimulation, VarysBottleneckSeesRackLinks) {
  // A coflow whose port-level bottleneck is small but whose rack uplink is
  // saturated: effective bottleneck must reflect the rack link.
  Fabric f(rackFabric(8, 4, 8.0, 1.0));  // Rack link = 0.5.
  std::vector<sim::CoflowState> coflows(1);
  coflows[0].id = {0, 0};
  sim::FlowArena flows;
  std::vector<std::size_t> active = {0, 1};
  for (int i = 0; i < 2; ++i) {
    sim::FlowState fs;
    fs.coflow_index = 0;
    fs.src = static_cast<coflow::PortId>(i);
    fs.dst = static_cast<coflow::PortId>(4 + i);
    fs.size = 10;
    fs.started = true;
    coflows[0].flow_indices.push_back(flows.push(fs));
  }
  sim::ActiveCoflowIndex index;
  index.rebuild(flows, active);
  sim::SimView view;
  view.fabric = &f;
  view.coflows = &coflows;
  view.flows = &flows;
  view.active_flows = &active;
  view.active_index = &index;
  ASSERT_EQ(index.groups().size(), 1u);
  // Port bottleneck: 10/1 = 10s; rack uplink: 20/0.5 = 40s.
  EXPECT_NEAR(sched::VarysScheduler::effectiveBottleneck(view, index.groups()[0]),
              40.0, 1e-9);
}

TEST(RackSimulation, SamplingRanksMatureCoflowsInVarysGammaOrder) {
  // Equal flow sizes and one completed probe per coflow make sampling's
  // size estimate exact, so its mature (SEBF) order must be Varys's Γ
  // order, which on an oversubscribed fabric the rack uplink decides.
  // (probe_fraction = 1.0 would make every flow a probe, and a coflow
  // matures only once all its probes are done, i.e. when it finishes.)
  for (const double oversub : {2.0, 4.0}) {
    SCOPED_TRACE("oversubscription " + std::to_string(oversub));
    Fabric f(rackFabric(8, 4, oversub, 1.0));  // Rack link = 4 / oversub.
    std::vector<sim::CoflowState> coflows(3);
    sim::FlowArena flows;
    std::vector<std::size_t> active;
    const auto addFlow = [&](std::size_t c, coflow::PortId src,
                             coflow::PortId dst, util::Bytes size, bool done) {
      sim::FlowState fs;
      fs.coflow_index = c;
      fs.src = src;
      fs.dst = dst;
      fs.size = size;
      fs.sent = done ? size : 0;
      fs.started = true;
      fs.done = done;
      coflows[c].flow_indices.push_back(flows.push(fs));
      coflows[c].sent += fs.sent;
      if (!done) active.push_back(coflows[c].flow_indices.back());
    };
    // A: three cross-rack flows of 10 out of rack 0. Ports: 10 s; rack 0's
    // uplink: 30 / (4 / oversub) = 15 s at 2:1, 30 s at 4:1.
    coflows[0].id = {1, 0};
    addFlow(0, 0, 4, 10, true);  // The completed probe.
    for (coflow::PortId p = 0; p < 3; ++p) addFlow(0, p, 4 + p, 10, false);
    // B: one intra-rack flow of 12: 12 s. Ports alone rank it behind A.
    coflows[1].id = {2, 0};
    addFlow(1, 3, 0, 12, true);
    addFlow(1, 3, 0, 12, false);
    // C: one cross-rack flow of 2 out of rack 1: at most 2 s.
    coflows[2].id = {3, 0};
    addFlow(2, 7, 1, 2, true);
    addFlow(2, 7, 1, 2, false);

    sim::ActiveCoflowIndex index;
    index.rebuild(flows, active);
    sim::SimView view;
    view.fabric = &f;
    view.coflows = &coflows;
    view.flows = &flows;
    view.active_flows = &active;
    view.active_index = &index;

    std::vector<std::pair<util::Seconds, coflow::CoflowId>> gamma;
    for (const auto& group : index.groups()) {
      gamma.emplace_back(sched::VarysScheduler::effectiveBottleneck(view, group),
                         coflows[group.coflow_index].id);
    }
    std::sort(gamma.begin(), gamma.end());
    std::vector<coflow::CoflowId> varys;
    for (const auto& [g, id] : gamma) varys.push_back(id);
    EXPECT_EQ(varys, (std::vector<coflow::CoflowId>{{3, 0}, {2, 0}, {1, 0}}));

    sched::SamplingScheduler sampling(
        sched::SamplingConfig{.probe_fraction = 0.01, .min_probes = 1});
    sampling.reset(f);
    sampling.scheduleEpoch(view);
    std::vector<coflow::CoflowId> ranked;
    for (const std::size_t g : sampling.matureOrder()) {
      ranked.push_back(coflows[index.groups()[g].coflow_index].id);
    }
    EXPECT_EQ(ranked, varys);
  }
}


TEST(RackSimulation, WeightedDClasExcessPassCoversRackLinks) {
  // A lone demoted cross-rack coflow must still get the full rack-link
  // rate: the excess pass has to pool unused *rack* capacity, not just
  // unused port capacity. Strict priority runs the same greedy loop over
  // the whole fabric, so it must reach the same CCTs.
  for (const auto policy : {sched::DClasConfig::QueuePolicy::kWeightedFair,
                            sched::DClasConfig::QueuePolicy::kStrictPriority}) {
    sched::DClasConfig cfg;
    cfg.first_threshold = 5;  // Demoted almost immediately.
    cfg.num_queues = 4;
    cfg.exp_factor = 100;
    cfg.policy = policy;
    sched::DClasScheduler dclas(cfg);
    SCOPED_TRACE(dclas.name());
    const auto wl = makeWorkload(8, {makeJob(0, 0, {FlowDef{0, 4, 40}})});
    // 8 ports of 1.0, racks of 4, 2:1 oversubscribed: rack link = 2.0; the
    // port (1.0) is the bottleneck, so CCT must be 40 even after demotion.
    const auto result = runVerified(wl, rackFabric(8, 4, 2.0), dclas);
    EXPECT_NEAR(result.coflows[0].cct(), 40.0, 1e-6);

    // And with an 8:1 oversubscription (rack link 0.5), CCT = 80 exactly —
    // not 80 divided further by a queue-weight fraction.
    const auto tight = runVerified(wl, rackFabric(8, 4, 8.0), dclas);
    EXPECT_NEAR(tight.coflows[0].cct(), 80.0, 1e-6);
  }
}

TEST(RackSimulation, ClasTiesDoNotChatterOnOversubscribedFabric) {
  // Tied coflows bottlenecked on different resources gain service at
  // different aggregate rates, drift past the tie window and are caught up
  // again microseconds later; on this 40-coflow trace at 2:1 each such
  // catch-up costs a round. Bound the rounds, not the wall time.
  workload::FacebookConfig cfg;
  cfg.num_jobs = 40;
  cfg.num_ports = 20;
  cfg.seed = 1;
  cfg.mean_interarrival = 0.5;
  const coflow::Workload wl = workload::generateFacebookWorkload(cfg);
  sched::ContinuousClasScheduler clas;
  const auto flat = runVerified(wl, FabricConfig{cfg.num_ports, util::kGbps}, clas);
  const auto over = runVerified(wl, rackFabric(cfg.num_ports, 5, 2.0, util::kGbps), clas);
  ASSERT_EQ(over.coflows.size(), wl.coflowCount());
  EXPECT_LT(over.allocation_rounds, 2 * flat.allocation_rounds)
      << "rack-free " << flat.allocation_rounds;
}

}  // namespace
}  // namespace aalo::fabric
