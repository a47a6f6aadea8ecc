// Datacenter fabric model (§2.1, Figure 1a; §8 "In-Network Bottlenecks").
//
// By default the whole fabric is abstracted as one big non-blocking
// switch: machine uplinks (ingress ports) and downlinks (egress ports)
// are the only points of contention. A rate allocation is feasible iff,
// at every ingress port, the rates of flows originating there sum to at
// most the port capacity, and symmetrically at every egress port.
//
// The paper's discussion (§8) notes that when bottleneck locations are
// known — e.g. oversubscribed rack-to-core links — Aalo can allocate
// rack-to-core bandwidth instead of NIC bandwidth. Setting
// FabricConfig::rack enables that: ports are grouped into racks, and a
// cross-rack flow additionally consumes its source rack's uplink and its
// destination rack's downlink, each with capacity
//   ports_per_rack * port_capacity / oversubscription.
//
// Every layer that hands out or checks bandwidth sees one resource vector,
// indexed [ingress P | egress P | rack uplinks R | rack downlinks R], and
// asks Fabric::route which of those resources a flow crosses.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "coflow/ids.h"
#include "util/units.h"

namespace aalo::fabric {

struct RackConfig {
  /// 0 disables rack modeling (pure non-blocking switch).
  int ports_per_rack = 0;
  /// Core oversubscription ratio; the Facebook cluster in §7.1 ran 10:1.
  double oversubscription = 1.0;
};

struct FabricConfig {
  constexpr FabricConfig() = default;
  constexpr FabricConfig(int ports, util::Rate capacity)
      : num_ports(ports), port_capacity(capacity) {}

  int num_ports = 0;
  /// Uniform port capacity (bytes/s) for both uplinks and downlinks.
  util::Rate port_capacity = util::kGbps;
  RackConfig rack;
};

/// The resources one flow crosses, as indices into Fabric::capacities():
/// its ingress and egress port, then — for a cross-rack flow — its source
/// rack's uplink and its destination rack's downlink.
struct Route {
  std::array<std::uint32_t, 4> resource{};
  std::uint32_t size = 0;

  const std::uint32_t* begin() const { return resource.data(); }
  const std::uint32_t* end() const { return resource.data() + size; }
};

class Fabric {
 public:
  explicit Fabric(const FabricConfig& config);

  int numPorts() const { return num_ports_; }
  /// 2 x ports + 2 x racks: the length of capacities().
  std::size_t numResources() const { return capacity_.size(); }
  /// Capacity of every resource, indexed
  /// [ingress P | egress P | rack uplinks R | rack downlinks R].
  const std::vector<util::Rate>& capacities() const { return capacity_; }

  /// Resource indices (unchecked: hot-path arithmetic).
  std::size_t ingressResource(coflow::PortId p) const {
    return static_cast<std::size_t>(p);
  }
  std::size_t egressResource(coflow::PortId p) const {
    return static_cast<std::size_t>(num_ports_ + p);
  }
  std::size_t uplinkResource(int rack) const {
    return static_cast<std::size_t>(2 * num_ports_ + rack);
  }
  std::size_t downlinkResource(int rack) const {
    return static_cast<std::size_t>(2 * num_ports_ + num_racks_ + rack);
  }

  /// The 2 (same rack, or no racks) or 4 resources a src->dst flow
  /// crosses. Ports must be in range. Inline: every allocation, check and
  /// bound walks routes.
  Route route(coflow::PortId src, coflow::PortId dst) const {
    Route r;
    r.resource[0] = static_cast<std::uint32_t>(ingressResource(src));
    r.resource[1] = static_cast<std::uint32_t>(egressResource(dst));
    r.size = 2;
    if (num_racks_ > 0) {
      const int up = src / ports_per_rack_;
      const int down = dst / ports_per_rack_;
      if (up != down) {
        r.resource[2] = static_cast<std::uint32_t>(uplinkResource(up));
        r.resource[3] = static_cast<std::uint32_t>(downlinkResource(down));
        r.size = 4;
      }
    }
    return r;
  }

  util::Rate ingressCapacity(coflow::PortId p) const {
    return capacity_[ingressResource(checked(p))];
  }
  util::Rate egressCapacity(coflow::PortId p) const {
    return capacity_[egressResource(checked(p))];
  }

  /// Heterogeneous capacities (e.g. modeling slower stragglers).
  void setIngressCapacity(coflow::PortId p, util::Rate cap) {
    capacity_[ingressResource(checked(p))] = cap;
  }
  void setEgressCapacity(coflow::PortId p, util::Rate cap) {
    capacity_[egressResource(checked(p))] = cap;
  }

  // --- rack topology (§8) -------------------------------------------------
  bool hasRacks() const { return num_racks_ > 0; }
  int numRacks() const { return num_racks_; }
  int rackOf(coflow::PortId p) const { return checked(p) / ports_per_rack_; }
  bool crossRack(coflow::PortId src, coflow::PortId dst) const {
    return hasRacks() && rackOf(src) != rackOf(dst);
  }
  util::Rate rackUplinkCapacity(int rack) const {
    return capacity_[uplinkResource(checkedRack(rack))];
  }
  util::Rate rackDownlinkCapacity(int rack) const {
    return capacity_[downlinkResource(checkedRack(rack))];
  }

 private:
  coflow::PortId checked(coflow::PortId p) const;
  int checkedRack(int rack) const;

  int num_ports_;
  int ports_per_rack_ = 1;
  int num_racks_ = 0;
  std::vector<util::Rate> capacity_;
};

/// Mutable residual capacity tracker used by greedy scheduler passes:
/// start from a fabric (or a scaled share of it), hand out rate to flows
/// along their routes, and query what is left.
class ResidualCapacity {
 public:
  /// Empty tracker; fill via assignFrom() (reusable scheduler scratch).
  ResidualCapacity() = default;
  explicit ResidualCapacity(const Fabric& fabric, double scale = 1.0) {
    assignFrom(fabric, scale);
  }

  const Fabric* fabric() const { return fabric_; }
  int numPorts() const { return fabric_->numPorts(); }
  /// What is left of every resource, indexed like Fabric::capacities().
  const std::vector<util::Rate>& left() const { return left_; }
  util::Rate ingress(coflow::PortId p) const { return left_[fabric_->ingressResource(p)]; }
  util::Rate egress(coflow::PortId p) const { return left_[fabric_->egressResource(p)]; }
  util::Rate rackUplink(int rack) const { return left_[fabric_->uplinkResource(rack)]; }
  util::Rate rackDownlink(int rack) const {
    return left_[fabric_->downlinkResource(rack)];
  }

  /// Largest rate a single src->dst flow could still get: the minimum
  /// over its route. Inline: this and consume() are the innermost
  /// operations of every greedy scheduler pass.
  util::Rate available(coflow::PortId src, coflow::PortId dst) const {
    const Route route = fabric_->route(src, dst);
    util::Rate limit = std::min(left_[route.resource[0]], left_[route.resource[1]]);
    for (std::uint32_t k = 2; k < route.size; ++k) {
      limit = std::min(limit, left_[route.resource[k]]);
    }
    return limit;
  }

  /// Removes `rate` from every resource on `route`. Clamps at zero (tiny
  /// negative residuals arise from floating-point water-filling).
  void consume(const Route& route, util::Rate rate) {
    for (const std::uint32_t r : route) left_[r] = std::max(0.0, left_[r] - rate);
  }
  void consume(coflow::PortId src, coflow::PortId dst, util::Rate rate) {
    consume(fabric_->route(src, dst), rate);
  }

  /// Adds `slice` resource by resource (pooling unused capacity).
  void add(const std::vector<util::Rate>& slice) {
    for (std::size_t r = 0; r < left_.size(); ++r) left_[r] += slice[r];
  }

  /// Re-initializes from a fabric without reallocating (scratch reuse in
  /// per-round scheduler passes).
  void assignFrom(const Fabric& fabric, double scale = 1.0) {
    fabric_ = &fabric;
    left_.assign(fabric.capacities().begin(), fabric.capacities().end());
    if (scale != 1.0) {
      for (auto& c : left_) c *= scale;
    }
  }

 private:
  const Fabric* fabric_ = nullptr;
  std::vector<util::Rate> left_;
};

}  // namespace aalo::fabric
