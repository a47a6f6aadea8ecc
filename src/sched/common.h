// Building blocks shared by the coflow schedulers.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/maxmin.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace aalo::sched {

/// A coflow together with its currently active (started, unfinished)
/// flows. Alias of the engine-maintained grouping type.
using ActiveCoflow = sim::ActiveGroup;

/// The active-coflow grouping for `view`: the engine-maintained
/// incremental index when present (free — no per-round rebuild), else
/// rebuilt into `scratch` (hand-assembled views in tests and benches).
/// Order of the result is deterministic but discipline-neutral; callers
/// that care sort by their own key.
std::span<const ActiveCoflow> activeGroups(const sim::SimView& view,
                                           std::vector<ActiveCoflow>& scratch);

/// Gives `group`'s flows a max-min fair allocation of `residual` (equal
/// weights — line 6 of Pseudocode 1: no flow-size information), *adding*
/// to whatever `rates` already holds and consuming the residual. All
/// temporaries live in `scratch`.
void allocateCoflowMaxMin(const sim::SimView& view, const ActiveCoflow& group,
                          fabric::ResidualCapacity& residual,
                          std::vector<util::Rate>& rates,
                          fabric::MaxMinScratch& scratch);

/// Clairvoyant MADD (Varys): every active flow of `group` gets
/// remaining / Gamma where Gamma is the coflow's effective bottleneck
/// completion time against `residual` — all flows finish together, using
/// no more than necessary. No-op if the group has no remaining bytes.
void allocateCoflowMadd(const sim::SimView& view, const ActiveCoflow& group,
                        fabric::ResidualCapacity& residual,
                        std::vector<util::Rate>& rates,
                        fabric::MaxMinScratch& scratch);

/// Work conservation: distributes whatever `residual` still holds among
/// all of `flow_indices` max-min (equal weights), adding to `rates`.
void backfillMaxMin(const sim::SimView& view,
                    const std::vector<std::size_t>& flow_indices,
                    fabric::ResidualCapacity& residual,
                    std::vector<util::Rate>& rates,
                    fabric::MaxMinScratch& scratch);

/// One coflow as one ingress port's daemon sees it: the coflow's active
/// flows leaving that port (in view.active_flows order) and, once
/// addLocalSent has run, the bytes the coflow has sent through the port.
struct PortCoflow {
  std::size_t coflow_index;
  util::Bytes local_sent = 0;
  std::vector<std::size_t> flow_indices;
};

/// The active flows grouped per ingress port: ports[p] lists the coflows
/// with an active flow leaving p, in first-appearance order of
/// view.active_flows; slot[p] maps a coflow index to its position there.
struct PortGroups {
  std::vector<std::vector<PortCoflow>> ports;
  std::vector<std::unordered_map<std::size_t, std::size_t>> slot;
};

PortGroups groupByIngressPort(const sim::SimView& view);

/// Locally attained service, the only size a daemon sees without a
/// coordinator: adds to every (port, coflow) entry of `groups` the bytes
/// the coflow has sent through that port, finished flows included.
/// Sums in activeGroups order, then the coflow's flow order.
void addLocalSent(const sim::SimView& view, PortGroups& groups,
                  std::vector<ActiveCoflow>& scratch);

/// Aggregate current rate of a coflow's active flows (valid right after an
/// allocation round; used for wake-up prediction).
util::Rate coflowAggregateRate(const sim::SimView& view, const ActiveCoflow& group);

}  // namespace aalo::sched
