// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened only from benchmark files, around calls into a layer's
// public functions (the library itself carries no spans). Each span has a
// name, a request id (allocation round, coordination epoch or coflow),
// start, end and its parent, the span open on the same thread when it
// began. Aggregates per name are exact: count, total and self time (total
// minus the time covered by child spans), and p50/p99 over every
// duration. Raw spans are kept only for a sample of requests, to bound
// memory, and are written out after the run.
//
// Spans nest per thread; the recorder is meant for the one thread that
// drives a workload. While disabled, Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Aggregate {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::deque<std::int64_t> durations_ns;  ///< Grows without copying.

    double totalSeconds() const { return static_cast<double>(total_ns) * 1e-9; }
    double selfSeconds() const { return static_cast<double>(self_ns) * 1e-9; }
    double meanMicros() const;
    /// Exact percentile (nearest rank) over every recorded duration, in µs.
    double percentileMicros(double p) const;
  };

  struct RawSpan {
    int name = 0;
    int parent = -1;  ///< Name id of the enclosing span, -1 for a root.
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// The process-wide recorder (one driving thread at a time).
  static Tracer& instance();

  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Interns a span name; ids are stable for the process lifetime.
  int intern(const std::string& name);

  void begin(int name, std::uint64_t request);
  void end();

  const Aggregate& aggregate(int name) const { return aggregates_[name]; }
  const Aggregate* find(const std::string& name) const;
  /// Total spans recorded (all names).
  std::uint64_t spanCount() const;
  /// Sum of root-span totals and of every span's self time. Equal when
  /// every span closed inside its parent; the traced run checks this.
  std::int64_t rootTotalNs() const { return root_total_ns_; }
  std::int64_t selfSumNs() const;
  /// True while no span is open.
  bool idle() const { return stack_.empty(); }

  /// Writes the sampled raw spans as JSON to `path`.
  void writeSpans(const std::string& path) const;
  void reset();

 private:
  struct Open {
    int name;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  bool enabled_ = false;
  std::vector<Aggregate> aggregates_;
  std::vector<Open> stack_;
  std::vector<RawSpan> raw_;
  std::int64_t root_total_ns_ = 0;
};

/// RAII span; a no-op while tracing is disabled.
class Span {
 public:
  Span(int name, std::uint64_t request) : active_(Tracer::instance().enabled()) {
    if (active_) Tracer::instance().begin(name, request);
  }
  ~Span() {
    if (active_) Tracer::instance().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench
