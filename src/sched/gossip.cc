#include "sched/gossip.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aalo::sched {

GossipDClasScheduler::GossipDClasScheduler(GossipConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  thresholds_ = config_.dclas.thresholds();
  if (config_.round_interval <= 0) {
    throw std::invalid_argument("GossipConfig: round_interval must be positive");
  }
  if (config_.exchanges_per_round < 1) {
    throw std::invalid_argument("GossipConfig: exchanges_per_round must be >= 1");
  }
}

void GossipDClasScheduler::reset(const fabric::Fabric& fabric) {
  num_ports_ = fabric.numPorts();
  mass_.assign(static_cast<std::size_t>(num_ports_), {});
  credited_.clear();
  last_gossip_ = 0;
  rng_ = util::Rng(config_.seed);
}

void GossipDClasScheduler::onCoflowFinished(const sim::SimView& view,
                                            std::size_t coflow_index) {
  (void)view;
  for (auto& port_mass : mass_) port_mass.erase(coflow_index);
  // credited_ entries of its flows are dead weight but harmless; they are
  // cleared on reset. (Flow indices are unique per run.)
  (void)coflow_index;
}

void GossipDClasScheduler::creditLocalBytes(const sim::SimView& view) {
  // Add newly sent bytes into the sending port's mass so the global
  // invariant sum_p mass_[p][c] == attained(c) holds.
  for (std::size_t ci = 0; ci < view.coflows->size(); ++ci) {
    const sim::CoflowState& c = view.coflow(ci);
    if (!c.released || c.done) continue;
    for (const std::size_t fi : c.flow_indices) {
      const sim::FlowState& f = view.flow(fi);
      if (!f.started || f.sent <= 0) continue;
      util::Bytes& seen = credited_[fi];
      if (f.sent > seen) {
        mass_[static_cast<std::size_t>(f.src)][ci] += f.sent - seen;
        seen = f.sent;
      }
    }
  }
}

void GossipDClasScheduler::runGossipRounds(util::Seconds now) {
  while (last_gossip_ + config_.round_interval <= now + util::kEps) {
    last_gossip_ += config_.round_interval;
    for (int e = 0; e < config_.exchanges_per_round; ++e) {
      // Random perfect matching of ports; each pair averages its masses.
      std::vector<std::size_t> ports(static_cast<std::size_t>(num_ports_));
      for (std::size_t p = 0; p < ports.size(); ++p) ports[p] = p;
      rng_.shuffle(ports);
      for (std::size_t i = 0; i + 1 < ports.size(); i += 2) {
        auto& a = mass_[ports[i]];
        auto& b = mass_[ports[i + 1]];
        // Union of keys, then average.
        for (auto& [ci, bytes] : a) {
          const auto it = b.find(ci);
          const util::Bytes other = it == b.end() ? 0.0 : it->second;
          const util::Bytes avg = (bytes + other) / 2;
          bytes = avg;
          b[ci] = avg;
        }
        for (auto& [ci, bytes] : b) {
          if (!a.contains(ci)) {
            const util::Bytes avg = bytes / 2;
            bytes = avg;
            a[ci] = avg;
          }
        }
      }
    }
  }
}

util::Bytes GossipDClasScheduler::estimate(int port, std::size_t coflow_index) const {
  const auto& port_mass = mass_[static_cast<std::size_t>(port)];
  const auto it = port_mass.find(coflow_index);
  return it == port_mass.end()
             ? 0.0
             : it->second * static_cast<double>(num_ports_);
}

void GossipDClasScheduler::allocate(const sim::SimView& view,
                                    std::vector<util::Rate>& rates) {
  creditLocalBytes(view);
  runGossipRounds(view.now);

  // Per-port D-CLAS, as in the uncoordinated scheduler, but on the
  // converging gossip estimates instead of local attained bytes.
  allocatePerPortDClas(
      view, config_.dclas, thresholds_, groupByIngressPort(view),
      [this](std::size_t port, const PortCoflow& pc) {
        return estimate(static_cast<int>(port), pc.coflow_index);
      },
      rates, scratch_);
}

util::Seconds GossipDClasScheduler::nextWakeup(const sim::SimView& view) {
  return last_gossip_ + config_.round_interval > view.now + util::kEps
             ? last_gossip_ + config_.round_interval
             : view.now + config_.round_interval;
}

}  // namespace aalo::sched
