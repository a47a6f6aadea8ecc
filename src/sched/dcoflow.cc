#include "sched/dcoflow.h"

#include <algorithm>

namespace aalo::sched {

namespace {

std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Sigma-order: earliest absolute deadline first; deadline-free coflows
/// (absoluteDeadline == kInfTime) sort last; ties by release, then id.
bool sigmaBefore(const sim::CoflowState& a, const sim::CoflowState& b) {
  const util::Seconds da = a.absoluteDeadline();
  const util::Seconds db = b.absoluteDeadline();
  if (da != db) return da < db;
  if (a.release_time != b.release_time) return a.release_time < b.release_time;
  return a.id < b.id;
}

}  // namespace

void DCoflowScheduler::reset(const fabric::Fabric& fabric) {
  (void)fabric;
  decided_.clear();
  admitted_.clear();
  log_.clear();
  rejected_ = 0;
  decision_version_ = 0;
}

void DCoflowScheduler::decideAdmissions(const sim::SimView& view) {
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  if (decided_.size() < view.coflows->size()) {
    decided_.resize(view.coflows->size(), 0);
    admitted_.resize(view.coflows->size(), 0);
  }
  candidate_scratch_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!decided_[groups[g].coflow_index]) candidate_scratch_.push_back(g);
  }
  // The common case: nothing new. Bail before touching any per-flow state
  // — on reused rounds per-flow `sent` may be stale, but a coflow's first
  // active round always bumps the membership epoch, so whenever
  // candidates exist the engine has materialized fresh state.
  if (candidate_scratch_.empty()) return;
  std::sort(candidate_scratch_.begin(), candidate_scratch_.end(),
            [&](std::size_t a, std::size_t b) {
              const sim::CoflowState& ca = view.coflow(groups[a].coflow_index);
              const sim::CoflowState& cb = view.coflow(groups[b].coflow_index);
              if (ca.release_time != cb.release_time) {
                return ca.release_time < cb.release_time;
              }
              return ca.id < cb.id;
            });

  for (const std::size_t cand : candidate_scratch_) {
    const std::size_t cand_ci = groups[cand].coflow_index;
    const sim::CoflowState& cand_state = view.coflow(cand_ci);

    // Tentative sigma-ordered list: currently admitted active coflows
    // plus the candidate (earlier candidates of this same round are
    // already in admitted_, so later ones see them).
    order_scratch_.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (g == cand || admitted_[groups[g].coflow_index]) {
        order_scratch_.push_back(g);
      }
    }
    std::sort(order_scratch_.begin(), order_scratch_.end(),
              [&](std::size_t a, std::size_t b) {
                return sigmaBefore(view.coflow(groups[a].coflow_index),
                                   view.coflow(groups[b].coflow_index));
              });

    // Walk the sigma order accumulating per-resource remaining load
    // (clairvoyant, like Varys: dcoflow needs sizes to test deadlines).
    // The completion bound of the k-th coflow is the worst cumulative
    // load/capacity over every port and rack link the prefix crosses,
    // after its own load is added — every byte of the prefix must cross
    // that resource before the k-th coflow can finish under the
    // sigma-order service discipline. Cumulative loads only grow, so
    // reading the resources each coflow touches keeps the running worst
    // exact. Coflows *before* the candidate keep their prefix (and thus
    // their bound) unchanged, so only the candidate and its successors
    // are tested.
    std::vector<util::Bytes>& load = scratch_.load;
    load.assign(view.fabric->numResources(), 0.0);
    util::Seconds worst = 0;
    bool ok = true;
    bool candidate_seen = false;
    util::Seconds cand_bound = view.now;
    for (const std::size_t g : order_scratch_) {
      const ActiveCoflow& group = groups[g];
      addCoflowLoad(view, group, load, remainingBytes);
      worst = std::max(
          worst, worstLoad(view, group, load, view.fabric->capacities()).gamma);
      const util::Seconds bound =
          view.now + config_.admission_margin * worst;
      const sim::CoflowState& state = view.coflow(group.coflow_index);
      if (g == cand) {
        candidate_seen = true;
        cand_bound = bound;
      }
      if (candidate_seen && bound > state.absoluteDeadline() + util::kEps) {
        ok = false;
        break;
      }
    }

    decided_[cand_ci] = 1;
    admitted_[cand_ci] = ok ? 1 : 0;
    if (!ok) ++rejected_;
    ++decision_version_;
    AdmissionDecision d;
    d.id = cand_state.id;
    d.coflow_index = cand_ci;
    d.admitted = ok;
    d.bound = cand_bound;
    d.deadline_abs = cand_state.absoluteDeadline();
    d.decided_at = view.now;
    log_.push_back(d);
  }
}

std::uint64_t DCoflowScheduler::scheduleEpoch(const sim::SimView& view) {
  decideAdmissions(view);
  // Between membership changes the allocation is a pure function of the
  // admitted partition and the (frozen-at-release) sigma keys: per-coflow
  // max-min and the backfills read only endpoints and capacities. Folding
  // the decision version over the membership epoch therefore captures
  // every input the rates depend on.
  std::uint64_t h = fnvMix(0xcbf29ce484222325ull, view.active_index->epoch());
  h = fnvMix(h, decision_version_);
  return h == 0 ? 1 : h;
}

void DCoflowScheduler::allocate(const sim::SimView& view,
                                std::vector<util::Rate>& rates) {
  decideAdmissions(view);
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();

  order_scratch_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (admitted_[groups[g].coflow_index]) order_scratch_.push_back(g);
  }
  std::sort(order_scratch_.begin(), order_scratch_.end(),
            [&](std::size_t a, std::size_t b) {
              return sigmaBefore(view.coflow(groups[a].coflow_index),
                                 view.coflow(groups[b].coflow_index));
            });

  fabric::ResidualCapacity residual(*view.fabric);
  for (const std::size_t g : order_scratch_) {
    allocateCoflowMaxMin(view, groups[g], residual, rates, scratch_);
  }
  // Backfill leftover capacity across admitted flows before the
  // background pass over rejected ones.
  flows_scratch_.clear();
  for (const std::size_t g : order_scratch_) {
    flows_scratch_.insert(flows_scratch_.end(), groups[g].flow_indices.begin(),
                          groups[g].flow_indices.end());
  }
  backfillMaxMin(view, flows_scratch_, residual, rates, scratch_);
  // Background service for rejected coflows: strictly leftover capacity,
  // so they cannot delay anyone admitted, but they always make progress
  // and the run terminates.
  flows_scratch_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!admitted_[groups[g].coflow_index]) {
      flows_scratch_.insert(flows_scratch_.end(), groups[g].flow_indices.begin(),
                            groups[g].flow_indices.end());
    }
  }
  if (!flows_scratch_.empty()) {
    backfillMaxMin(view, flows_scratch_, residual, rates, scratch_);
  }
}

}  // namespace aalo::sched
