#include "sched/registry.h"

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

namespace aalo::sched {

namespace {

using Made = std::unique_ptr<sim::Scheduler>;
using Workload = coflow::Workload;

// Decision quantum of the local-knowledge baselines, in trace seconds:
// their per-port priorities drift between events, so they re-decide at
// least this often.
constexpr util::Seconds kLocalQuantum = 2.0;

/// The scheduler's own defaults are the paper's.
template <typename S>
Made byDefault(const Workload&, util::Seconds) {
  return std::make_unique<S>();
}

Made aalo(const Workload&, util::Seconds delta) {
  DClasConfig cfg;  // K = 10, E = 10, Q1 = 10 MB.
  cfg.sync_interval = delta;
  return std::make_unique<DClasScheduler>(cfg);
}

Made aaloStrict(const Workload&, util::Seconds) {
  DClasConfig cfg;
  cfg.policy = DClasConfig::QueuePolicy::kStrictPriority;
  return std::make_unique<DClasScheduler>(cfg);
}

Made fifoSpill(const Workload&, util::Seconds) {
  return std::make_unique<FifoScheduler>(FifoConfig{true});
}

Made fifoLm(const Workload& workload, util::Seconds) {
  FifoLmConfig cfg;
  cfg.heavy_threshold = heavyThreshold(workload);
  cfg.quantum = kLocalQuantum;
  return std::make_unique<FifoLmScheduler>(cfg);
}

Made las(const Workload&, util::Seconds) {
  LasConfig cfg;
  cfg.quantum = kLocalQuantum;
  return std::make_unique<DecentralizedLasScheduler>(cfg);
}

Made uncoordinated(const Workload&, util::Seconds) {
  // Aalo's queue structure on local knowledge only.
  return std::make_unique<UncoordinatedDClasScheduler>(DClasConfig{}, kLocalQuantum);
}

Made offline(const Workload& workload, util::Seconds) {
  return std::make_unique<OfflineOrderScheduler>(
      computeConcurrentOpenShopOrder(workload));
}

constexpr RegisteredScheduler kCatalogue[] = {
    {"aalo", aalo},
    {"aalo-strict", aaloStrict},
    {"aalo-adaptive", byDefault<AdaptiveDClasScheduler>},
    {"fair", byDefault<PerFlowFairScheduler>},
    {"varys", byDefault<VarysScheduler>},
    {"fifo", byDefault<FifoScheduler>},
    {"fifo-spill", fifoSpill},
    {"fifo-lm", fifoLm},
    {"las", las},
    {"sampling", byDefault<SamplingScheduler>},
    {"dcoflow", byDefault<DCoflowScheduler>},
    {"uncoordinated", uncoordinated},
    {"gossip", byDefault<GossipDClasScheduler>},
    {"clas", byDefault<ContinuousClasScheduler>},
    {"offline", offline},
};

}  // namespace

std::span<const RegisteredScheduler> registeredSchedulers() { return kCatalogue; }

const RegisteredScheduler* findScheduler(std::string_view name) {
  for (const RegisteredScheduler& entry : kCatalogue) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::unique_ptr<sim::Scheduler> makeScheduler(std::string_view name,
                                              const coflow::Workload& workload,
                                              util::Seconds delta) {
  const RegisteredScheduler* entry = findScheduler(name);
  return entry == nullptr ? nullptr : entry->make(workload, delta);
}

}  // namespace aalo::sched
