// Shared builders for scheduler/simulator tests: tiny workloads with
// hand-computable completion times on unit-capacity fabrics, and the
// scheduler zoo the cross-scheduler suites sweep.
#pragma once

#include <initializer_list>
#include <memory>
#include <vector>

#include "coflow/spec.h"
#include "fabric/fabric.h"
#include "sched/adaptive.h"
#include "sched/clas.h"
#include "sched/dclas.h"
#include "sched/dcoflow.h"
#include "sched/fair.h"
#include "sched/fifo.h"
#include "sched/fifo_lm.h"
#include "sched/gossip.h"
#include "sched/las.h"
#include "sched/offline_opt.h"
#include "sched/sampling.h"
#include "sched/uncoordinated.h"
#include "sched/varys.h"
#include "sim/simulator.h"

namespace aalo::testing {

/// Fabric with `ports` ports of 1 byte/s each: sizes == seconds.
inline fabric::FabricConfig unitFabric(int ports) {
  return fabric::FabricConfig{ports, 1.0};
}

struct FlowDef {
  coflow::PortId src;
  coflow::PortId dst;
  util::Bytes bytes;
  util::Seconds offset = 0;
};

/// One job holding one coflow with the given flows.
inline coflow::JobSpec makeJob(coflow::JobId job_id, util::Seconds arrival,
                               std::initializer_list<FlowDef> flows,
                               std::int32_t internal = 0) {
  coflow::JobSpec job;
  job.id = job_id;
  job.arrival = arrival;
  coflow::CoflowSpec spec;
  spec.id = coflow::CoflowId{job_id, internal};
  for (const FlowDef& f : flows) {
    spec.flows.push_back(coflow::FlowSpec{f.src, f.dst, f.bytes, f.offset});
  }
  job.coflows.push_back(std::move(spec));
  return job;
}

inline coflow::Workload makeWorkload(int ports,
                                     std::vector<coflow::JobSpec> jobs) {
  coflow::Workload wl;
  wl.num_ports = ports;
  wl.jobs = std::move(jobs);
  return wl;
}

/// Runs with allocation verification on (tests always verify feasibility).
inline sim::SimResult runVerified(const coflow::Workload& wl,
                                  fabric::FabricConfig fc, sim::Scheduler& sched) {
  sim::SimOptions opts;
  opts.verify_allocations = true;
  return sim::runSimulation(wl, fc, sched, opts);
}

/// CCT of the coflow with the given id; throws if absent.
inline util::Seconds cctOf(const sim::SimResult& result, coflow::CoflowId id) {
  for (const auto& rec : result.coflows) {
    if (rec.id == id) return rec.cct();
  }
  throw std::out_of_range("cctOf: coflow not in result");
}

/// Average CCT over all coflows.
inline double avgCct(const sim::SimResult& result) {
  double total = 0;
  for (const auto& rec : result.coflows) total += rec.cct();
  return total / static_cast<double>(result.coflows.size());
}

/// The test zoo: every scheduler in src/sched/, some in two settings,
/// configured so queue transitions, sync boundaries, refits, and quanta
/// all fire within the short runs of the unit-fabric workloads.
/// `byte_scale` multiplies the byte thresholds and tie windows (1 suits
/// the unit-fabric workloads, whose flows are a few bytes); `delta` is
/// the sync interval of the D-CLAS configurations not explicitly delayed.
inline std::vector<std::unique_ptr<sim::Scheduler>> allSchedulers(
    const coflow::Workload& wl, double byte_scale = 1.0, util::Seconds delta = 0.0) {
  sched::DClasConfig dcfg;
  dcfg.first_threshold = 8 * byte_scale;
  dcfg.exp_factor = 4;
  dcfg.num_queues = 4;
  dcfg.sync_interval = delta;
  sched::DClasConfig strict = dcfg;
  strict.policy = sched::DClasConfig::QueuePolicy::kStrictPriority;
  sched::DClasConfig delayed = dcfg;
  delayed.sync_interval = 0.7;
  sched::DClasConfig delayed_strict = strict;
  delayed_strict.sync_interval = 0.4;
  sched::LasConfig las_cfg;
  las_cfg.quantum = 0.5;
  las_cfg.tie_window = 0.05 * byte_scale;
  sched::FifoLmConfig lm_cfg;
  lm_cfg.heavy_threshold = 20 * byte_scale;
  lm_cfg.quantum = 0.5;
  sched::ClasConfig clas_cfg;
  clas_cfg.quantum = 0.5;
  clas_cfg.tie_window = 0.05 * byte_scale;
  sched::AdaptiveConfig acfg;
  acfg.dclas = dcfg;
  acfg.min_samples = 5;
  acfg.refit_interval = 5;
  sched::GossipConfig gcfg;
  gcfg.dclas = dcfg;
  gcfg.round_interval = 0.5;

  std::vector<std::unique_ptr<sim::Scheduler>> out;
  out.push_back(std::make_unique<sched::PerFlowFairScheduler>());
  out.push_back(std::make_unique<sched::DClasScheduler>(dcfg));
  out.push_back(std::make_unique<sched::DClasScheduler>(strict));
  out.push_back(std::make_unique<sched::DClasScheduler>(delayed));
  out.push_back(std::make_unique<sched::DClasScheduler>(delayed_strict));
  out.push_back(std::make_unique<sched::VarysScheduler>());
  out.push_back(std::make_unique<sched::VarysScheduler>(sched::VarysConfig{0.2}));
  out.push_back(std::make_unique<sched::DecentralizedLasScheduler>(las_cfg));
  out.push_back(std::make_unique<sched::FifoLmScheduler>(lm_cfg));
  out.push_back(std::make_unique<sched::FifoScheduler>());
  out.push_back(std::make_unique<sched::FifoScheduler>(sched::FifoConfig{true}));
  out.push_back(std::make_unique<sched::ContinuousClasScheduler>(clas_cfg));
  out.push_back(std::make_unique<sched::UncoordinatedDClasScheduler>(dcfg, 0.5));
  out.push_back(std::make_unique<sched::AdaptiveDClasScheduler>(acfg));
  out.push_back(std::make_unique<sched::GossipDClasScheduler>(gcfg));
  out.push_back(std::make_unique<sched::OfflineOrderScheduler>(
      sched::computeConcurrentOpenShopOrder(wl)));
  sched::SamplingConfig sampling_cfg;
  sampling_cfg.probe_fraction = 0.34;
  sampling_cfg.min_probes = 1;
  sampling_cfg.quantum = 0.5;
  out.push_back(std::make_unique<sched::SamplingScheduler>(sampling_cfg));
  sched::SamplingConfig full_probe = sampling_cfg;
  full_probe.probe_fraction = 1.0;  // Estimates become exact -> pure SEBF.
  full_probe.quantum = 0.25;
  out.push_back(std::make_unique<sched::SamplingScheduler>(full_probe));
  out.push_back(std::make_unique<sched::DCoflowScheduler>());
  sched::DCoflowConfig strict_admission;
  strict_admission.admission_margin = 1.5;
  out.push_back(std::make_unique<sched::DCoflowScheduler>(strict_admission));
  return out;
}

/// Index in allSchedulers() of the admission-delayed Varys, which
/// deliberately idles the fabric while a new coflow waits for its rates:
/// the one zoo member that is not work-conserving.
constexpr std::size_t kAdmissionDelayedVarys = 6;

}  // namespace aalo::testing
