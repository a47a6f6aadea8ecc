#include <gtest/gtest.h>

#include <algorithm>

#include "fabric/fabric.h"
#include "fabric/maxmin.h"
#include "util/rng.h"
#include "util/units.h"

namespace aalo::fabric {
namespace {

using aalo::util::kEps;

FabricConfig smallFabric(int ports, util::Rate cap = 100.0) {
  return FabricConfig{ports, cap};
}

TEST(Fabric, RejectsBadConfig) {
  EXPECT_THROW(Fabric(FabricConfig{0, 100}), std::invalid_argument);
  EXPECT_THROW(Fabric(FabricConfig{4, 0}), std::invalid_argument);
  Fabric f(smallFabric(2));
  EXPECT_THROW(f.ingressCapacity(2), std::out_of_range);
  EXPECT_THROW(f.egressCapacity(-1), std::out_of_range);
}

TEST(Fabric, HeterogeneousCapacities) {
  Fabric f(smallFabric(2, 100));
  f.setIngressCapacity(1, 40);
  EXPECT_DOUBLE_EQ(f.ingressCapacity(1), 40);
  EXPECT_DOUBLE_EQ(f.ingressCapacity(0), 100);
}

TEST(ResidualCapacity, ConsumeClampsAtZero) {
  Fabric f(smallFabric(2, 100));
  ResidualCapacity r(f);
  r.consume(0, 1, 150);
  EXPECT_DOUBLE_EQ(r.ingress(0), 0);
  EXPECT_DOUBLE_EQ(r.egress(1), 0);
  EXPECT_DOUBLE_EQ(r.ingress(1), 100);
  // Not exhausted: some resource still has capacity left.
  EXPECT_GT(*std::max_element(r.left().begin(), r.left().end()), util::kEps);
}

TEST(ResidualCapacity, ScaledShare) {
  Fabric f(smallFabric(2, 100));
  ResidualCapacity r(f, 0.25);
  EXPECT_DOUBLE_EQ(r.ingress(0), 25);
  EXPECT_DOUBLE_EQ(r.egress(1), 25);
}

TEST(MaxMin, SingleFlowGetsBottleneck) {
  Fabric f(smallFabric(2, 100));
  f.setEgressCapacity(1, 30);
  const auto rates = maxMinAllocate({Demand{0, 1}}, f);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0], 30, 1e-9);
}

TEST(MaxMin, EqualSharesOnSharedPort) {
  Fabric f(smallFabric(3, 90));
  // Three flows from port 0 to distinct destinations.
  const auto rates = maxMinAllocate(
      {Demand{0, 0}, Demand{0, 1}, Demand{0, 2}}, f);
  for (const auto r : rates) EXPECT_NEAR(r, 30, 1e-9);
}

TEST(MaxMin, WeightedShares) {
  Fabric f(smallFabric(2, 90));
  const auto rates = maxMinAllocate({Demand{0, 0, 1.0}, Demand{0, 1, 2.0}}, f);
  EXPECT_NEAR(rates[0], 30, 1e-9);
  EXPECT_NEAR(rates[1], 60, 1e-9);
}

TEST(MaxMin, ZeroWeightGetsNothing) {
  Fabric f(smallFabric(2, 100));
  const auto rates = maxMinAllocate({Demand{0, 0, 0.0}, Demand{0, 1, 1.0}}, f);
  EXPECT_DOUBLE_EQ(rates[0], 0);
  EXPECT_NEAR(rates[1], 100, 1e-9);
}

TEST(MaxMin, ClassicWaterFilling) {
  // Textbook example: flows A:0->0, B:0->1, C:1->1. Egress 1 is shared by
  // B and C; ingress 0 by A and B. All caps 1.0. Max-min: B gets 0.5,
  // A gets 0.5, C gets 0.5.
  Fabric f(smallFabric(2, 1.0));
  const auto rates = maxMinAllocate({Demand{0, 0}, Demand{0, 1}, Demand{1, 1}}, f);
  EXPECT_NEAR(rates[0], 0.5, 1e-9);
  EXPECT_NEAR(rates[1], 0.5, 1e-9);
  EXPECT_NEAR(rates[2], 0.5, 1e-9);
}

TEST(MaxMin, AsymmetricWaterFilling) {
  // Ingress 0 carries 3 flows, one of which shares egress 0 with a flow
  // from ingress 1. Water-filling: the three flows at ingress 0 get 1/3;
  // the lone flow at ingress 1 tops up egress 0 to its full capacity.
  Fabric f(smallFabric(2, 1.0));
  const auto rates = maxMinAllocate(
      {Demand{0, 0}, Demand{0, 1}, Demand{0, 1}, Demand{1, 0}}, f);
  EXPECT_NEAR(rates[0], 1.0 / 3, 1e-9);
  EXPECT_NEAR(rates[1], 1.0 / 3, 1e-9);
  EXPECT_NEAR(rates[2], 1.0 / 3, 1e-9);
  EXPECT_NEAR(rates[3], 2.0 / 3, 1e-9);
}

TEST(MaxMin, EmptyDemands) {
  Fabric f(smallFabric(1, 10));
  EXPECT_TRUE(maxMinAllocate({}, f).empty());
}

TEST(MaxMin, OutOfRangePortThrows) {
  Fabric f(smallFabric(2, 10));
  ResidualCapacity r(f);
  std::vector<Demand> demands = {Demand{0, 5}};
  EXPECT_THROW(maxMinAllocate(demands, r), std::out_of_range);
}

TEST(MaxMin, ConsumesResidual) {
  Fabric f(smallFabric(2, 100));
  ResidualCapacity r(f);
  (void)maxMinAllocate({Demand{0, 1}}, r);
  EXPECT_NEAR(r.ingress(0), 0, 1e-9);
  EXPECT_NEAR(r.egress(1), 0, 1e-9);
  EXPECT_NEAR(r.ingress(1), 100, 1e-9);
}

// Property sweep: random demand sets must respect capacities, be
// non-negative, and leave no port both unsaturated and wanted by a flow
// (work conservation / Pareto efficiency of max-min).
class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, FeasibleAndParetoEfficient) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int ports = static_cast<int>(rng.uniformInt(2, 12));
  const int flows = static_cast<int>(rng.uniformInt(1, 60));
  Fabric f(smallFabric(ports, 100.0));
  std::vector<Demand> demands;
  for (int i = 0; i < flows; ++i) {
    Demand d;
    d.src = static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1));
    d.dst = static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1));
    d.weight = rng.uniform(0.1, 4.0);
    demands.push_back(d);
  }
  ResidualCapacity r(f);
  const auto rates = maxMinAllocate(demands, r);

  std::vector<double> in(static_cast<std::size_t>(ports), 0.0);
  std::vector<double> out(in.size(), 0.0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_GE(rates[i], 0.0);
    in[static_cast<std::size_t>(demands[i].src)] += rates[i];
    out[static_cast<std::size_t>(demands[i].dst)] += rates[i];
  }
  for (int p = 0; p < ports; ++p) {
    EXPECT_LE(in[static_cast<std::size_t>(p)], 100.0 * (1 + 1e-6));
    EXPECT_LE(out[static_cast<std::size_t>(p)], 100.0 * (1 + 1e-6));
  }
  // Pareto efficiency: every flow must be blocked at one of its ports (no
  // free capacity left on both sides).
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const double slack_src = r.ingress(demands[i].src);
    const double slack_dst = r.egress(demands[i].dst);
    EXPECT_LT(std::min(slack_src, slack_dst), 1e-5)
        << "flow " << i << " could still grow";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MaxMinProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace aalo::fabric
