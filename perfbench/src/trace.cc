#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Keep every span of one request in 64, up to this many spans in all:
// enough to inspect a few hundred whole requests per run.
constexpr std::uint64_t kSampleStride = 64;
constexpr std::size_t kMaxRawSpans = 50'000;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double Tracer::Aggregate::meanMicros() const {
  return count > 0 ? static_cast<double>(total_ns) * 1e-3 / static_cast<double>(count)
                   : 0.0;
}

double Tracer::Aggregate::percentileMicros(double p) const {
  if (durations_ns.empty()) return 0.0;
  std::vector<std::int64_t> sorted(durations_ns.begin(), durations_ns.end());
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(n));
  rank = std::min(rank, n - 1);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return static_cast<double>(sorted[rank]) * 1e-3;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < aggregates_.size(); ++i) {
    if (aggregates_[i].name == name) return static_cast<int>(i);
  }
  Aggregate agg;
  agg.name = name;
  aggregates_.push_back(std::move(agg));
  return static_cast<int>(aggregates_.size() - 1);
}

void Tracer::begin(int name, std::uint64_t request) {
  stack_.push_back(Open{name, request, nowNs(), 0});
}

void Tracer::end() {
  if (stack_.empty()) throw std::logic_error("Tracer::end without an open span");
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t end_ns = nowNs();
  const std::int64_t dur = end_ns - open.start_ns;
  Aggregate& agg = aggregates_[static_cast<std::size_t>(open.name)];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur - open.child_ns;
  agg.durations_ns.push_back(dur);
  const int parent = stack_.empty() ? -1 : stack_.back().name;
  if (stack_.empty()) {
    root_total_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (open.request % kSampleStride == 0 && raw_.size() < kMaxRawSpans) {
    raw_.push_back(RawSpan{open.name, parent, open.request, open.start_ns, end_ns});
  }
}

const Tracer::Aggregate* Tracer::find(const std::string& name) const {
  for (const Aggregate& agg : aggregates_) {
    if (agg.name == name) return &agg;
  }
  return nullptr;
}

std::uint64_t Tracer::spanCount() const {
  std::uint64_t n = 0;
  for (const Aggregate& agg : aggregates_) n += agg.count;
  return n;
}

std::int64_t Tracer::selfSumNs() const {
  std::int64_t sum = 0;
  for (const Aggregate& agg : aggregates_) sum += agg.self_ns;
  return sum;
}

void Tracer::writeSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"sample_stride\": " << kSampleStride << ", \"spans\": [\n";
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& s = raw_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << aggregates_[s.name].name
        << "\", \"parent\": \""
        << (s.parent < 0 ? std::string() : aggregates_[s.parent].name)
        << "\", \"request\": " << s.request << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "\n]}\n";
}

void Tracer::reset() {
  for (Aggregate& agg : aggregates_) {
    agg.count = 0;
    agg.total_ns = 0;
    agg.self_ns = 0;
    agg.durations_ns.clear();
  }
  stack_.clear();
  raw_.clear();
  root_total_ns_ = 0;
}

}  // namespace perfbench
