#include "coflow/spec.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <unordered_set>

namespace aalo::coflow {

util::Bytes CoflowSpec::totalBytes() const {
  util::Bytes total = 0;
  for (const FlowSpec& f : flows) total += f.bytes;
  return total;
}

util::Bytes CoflowSpec::maxFlowBytes() const {
  util::Bytes m = 0;
  for (const FlowSpec& f : flows) m = std::max(m, f.bytes);
  return m;
}

int CoflowSpec::waveCount() const {
  std::set<util::Seconds> offsets;
  for (const FlowSpec& f : flows) offsets.insert(f.start_offset);
  return static_cast<int>(offsets.size());
}

util::Bytes JobSpec::totalBytes() const {
  util::Bytes total = 0;
  for (const CoflowSpec& c : coflows) total += c.totalBytes();
  return total;
}

std::size_t Workload::coflowCount() const {
  std::size_t n = 0;
  for (const JobSpec& j : jobs) n += j.coflows.size();
  return n;
}

util::Bytes Workload::totalBytes() const {
  util::Bytes total = 0;
  for (const JobSpec& j : jobs) total += j.totalBytes();
  return total;
}

void Workload::validate() const {
  if (num_ports <= 0) throw std::invalid_argument("Workload: num_ports must be positive");
  std::unordered_set<CoflowId> seen_coflows;
  std::unordered_set<JobId> seen_jobs;
  for (const JobSpec& job : jobs) {
    if (!seen_jobs.insert(job.id).second) {
      throw std::invalid_argument("Workload: duplicate job id " + std::to_string(job.id));
    }
    if (!std::isfinite(job.arrival) || !std::isfinite(job.compute_time) ||
        job.arrival < 0 || job.compute_time < 0) {
      throw std::invalid_argument(
          "Workload: negative or non-finite job arrival/compute time");
    }
    for (const CoflowSpec& c : job.coflows) {
      if (!seen_coflows.insert(c.id).second) {
        throw std::invalid_argument("Workload: duplicate coflow id " + c.id.toString());
      }
      if (c.flows.empty()) {
        throw std::invalid_argument("Workload: coflow " + c.id.toString() + " has no flows");
      }
      if (!std::isfinite(c.arrival_offset) || c.arrival_offset < 0) {
        throw std::invalid_argument(
            "Workload: negative or non-finite coflow arrival offset");
      }
      if (!std::isfinite(c.deadline) || c.deadline < 0) {
        throw std::invalid_argument(
            "Workload: negative or non-finite deadline in coflow " + c.id.toString());
      }
      for (const FlowSpec& f : c.flows) {
        if (f.src < 0 || f.src >= num_ports || f.dst < 0 || f.dst >= num_ports) {
          throw std::invalid_argument("Workload: flow port out of range in coflow " +
                                      c.id.toString());
        }
        if (!std::isfinite(f.bytes) || f.bytes <= 0) {
          throw std::invalid_argument(
              "Workload: non-positive or non-finite flow size in coflow " +
              c.id.toString());
        }
        if (!std::isfinite(f.start_offset) || f.start_offset < 0) {
          throw std::invalid_argument(
              "Workload: negative or non-finite flow start offset in coflow " +
              c.id.toString());
        }
      }
    }
    // Dependency references must stay inside the job.
    std::unordered_set<CoflowId> in_job;
    for (const CoflowSpec& c : job.coflows) in_job.insert(c.id);
    for (const CoflowSpec& c : job.coflows) {
      for (const CoflowId& p : c.starts_after) {
        if (!in_job.contains(p)) {
          throw std::invalid_argument("Workload: starts_after parent outside job for " +
                                      c.id.toString());
        }
      }
      for (const CoflowId& p : c.finishes_before) {
        if (!in_job.contains(p)) {
          throw std::invalid_argument("Workload: finishes_before parent outside job for " +
                                      c.id.toString());
        }
      }
    }
  }
}

}  // namespace aalo::coflow
