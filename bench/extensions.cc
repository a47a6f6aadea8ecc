// §8 extensions ("Discussion" / future work), implemented and measured:
//  1. In-network bottlenecks: Aalo on an oversubscribed (rack-aware)
//     fabric — "Aalo performs well even if the network is not
//     non-blocking".
//  2. Adaptive queue thresholds via online quantile tracking —
//     "dynamically changing these parameters based on online learning".
//  3. Decentralizing Aalo with Push-Sum-style gossip aggregation —
//     gossip frequency ladders between fully uncoordinated and
//     coordinated scheduling.
#include "bench/common.h"
#include "sched/adaptive.h"
#include "sched/gossip.h"
#include "workload/facebook.h"
#include "workload/transforms.h"

using namespace aalo;

int main() {
  bench::header(
      "§8 extensions: oversubscription, adaptive thresholds, gossip",
      "(1) Aalo's edge over fairness survives rack oversubscription; "
      "(2) adaptive thresholds recover the defaults' performance on a "
      "100x-shifted workload; (3) more gossip closes most of the gap "
      "between uncoordinated and coordinated Aalo");

  // ---- 1. Oversubscribed fabric -----------------------------------------
  {
    std::printf("\n1. Rack oversubscription (40 ports, 8 per rack):\n");
    const auto wl = bench::standardWorkload(200, 40, 88);
    util::Table table({"oversubscription", "aalo avg CCT",
                       "improvement over fair"});
    for (const double oversub : {1.0, 2.0, 4.0}) {
      fabric::FabricConfig fc = bench::standardFabric();
      fc.rack.ports_per_rack = 8;
      fc.rack.oversubscription = oversub;
      const auto aalo_result = bench::run(wl, fc, "aalo", "aalo oversub");
      const auto fair_result = bench::run(wl, fc, "fair", "fair oversub");
      util::Summary s;
      for (const auto& rec : aalo_result.coflows) s.add(rec.cct());
      table.addRow({util::Table::num(oversub, 0) + ":1",
                    util::formatSeconds(s.mean()),
                    util::Table::num(
                        analysis::normalizedCct(fair_result, aalo_result).avg, 2) +
                        "x"});
    }
    table.print(std::cout);
  }

  // ---- 2. Adaptive thresholds -------------------------------------------
  {
    std::printf("\n2. Adaptive thresholds on a 100x size-shifted workload:\n");
    // Default D-CLAS expects 10MB-scale smalls; this trace's coflows are
    // ~100x bigger, so the fixed ladder tops out far too early.
    workload::FacebookConfig cfg;
    cfg.num_jobs = 200;
    cfg.num_ports = 40;
    cfg.seed = 17;
    cfg.mean_interarrival = 2.0;
    cfg.max_flow_bytes = 100 * util::kGB;
    auto wl = workload::generateFacebookWorkload(cfg);
    for (auto& job : wl.jobs) {
      for (auto& c : job.coflows) {
        for (auto& f : c.flows) f.bytes *= 100.0;
      }
    }
    const auto fc = bench::standardFabric();

    const auto fixed_result = bench::run(wl, fc, "aalo", "fixed defaults");
    sched::AdaptiveConfig acfg;
    sched::AdaptiveDClasScheduler adaptive(acfg);
    const auto adaptive_result = bench::run(wl, fc, adaptive, "adaptive");
    const auto fair_result = bench::run(wl, fc, "fair", "per-flow fair");

    util::Table table({"variant", "avg CCT", "improvement over fair"});
    for (const auto* r : {&fixed_result, &adaptive_result}) {
      util::Summary s;
      for (const auto& rec : r->coflows) s.add(rec.cct());
      table.addRow({r->scheduler, util::formatSeconds(s.mean()),
                    util::Table::num(analysis::normalizedCct(fair_result, *r).avg, 2) +
                        "x"});
    }
    table.print(std::cout);
    std::printf("(adaptive refits: %zu)\n", adaptive.refits());
  }

  // ---- 3. Gossip ladder ---------------------------------------------------
  {
    std::printf("\n3. Gossip-based decentralization ladder:\n");
    const auto wl = bench::standardWorkload(150, 40, 44);
    const auto fc = bench::standardFabric();
    const auto fair_result = bench::run(wl, fc, "fair", "per-flow fair");

    util::Table table({"coordination", "improvement over fair (avg CCT)"});
    auto addRow = [&](const std::string& label, const sim::SimResult& r) {
      table.addRow({label,
                    util::Table::num(analysis::normalizedCct(fair_result, r).avg, 2) +
                        "x"});
    };

    addRow("none (local only)", bench::run(wl, fc, "uncoordinated"));
    for (const double interval : {5.0, 1.0, 0.2}) {
      sched::GossipConfig gcfg;
      gcfg.round_interval = interval;
      sched::GossipDClasScheduler gossip(gcfg);
      addRow("gossip every " + util::formatSeconds(interval),
             bench::run(wl, fc, gossip, "gossip " + util::formatSeconds(interval)));
    }
    addRow("central coordinator", bench::run(wl, fc, "aalo"));
    table.print(std::cout);
  }

  // ---- 4. Task failures & speculation (§5.2) -----------------------------
  {
    std::printf("\n4. Task failures / speculative restarts (§5.2):\n");
    const auto fc = bench::standardFabric();
    util::Table table({"failure rate", "restarted flows", "aalo avg CCT",
                       "improvement over fair"});
    for (const double rate : {0.0, 0.1, 0.3}) {
      auto wl = bench::standardWorkload(150, 40, 66);
      workload::FailureConfig fcfg;
      fcfg.failure_probability = rate;
      const std::size_t failures = workload::injectTaskFailures(wl, fcfg);
      const auto aalo_result = bench::run(wl, fc, "aalo", "aalo failures");
      const auto fair_result = bench::run(wl, fc, "fair", "fair failures");
      util::Summary s;
      for (const auto& rec : aalo_result.coflows) s.add(rec.cct());
      table.addRow({util::Table::num(100 * rate, 0) + "%", std::to_string(failures),
                    util::formatSeconds(s.mean()),
                    util::Table::num(
                        analysis::normalizedCct(fair_result, aalo_result).avg, 2) +
                        "x"});
    }
    table.print(std::cout);
    std::printf("(restarts only add attained service, so Aalo needs no special\n"
                " handling — its edge over fairness is stable across failure rates)\n");
  }
  return 0;
}
