// Low-overhead metrics subsystem (observability layer).
//
// Three instrument kinds, all safe for concurrent writers:
//  * Counter — monotonic u64, one relaxed atomic. Each counter has one
//    writing thread in practice (a component's loop thread), so there is
//    nothing to shard. API-compatible with the std::atomic<uint64_t>
//    usage subset the control plane relies on (fetch_add / load).
//  * Gauge — a last-write-wins double (bit-cast through one atomic u64).
//  * LatencyHistogram — fixed log-spaced buckets plus count and sum;
//    p50/p95/p99 extraction reuses util::bucketQuantile.
//
// A Registry names instruments and renders them as Prometheus text
// exposition or as a JSON dump shaped like the BENCH_*.json files
// ({"context": ..., "metrics": [...]}). Instruments are either owned by
// the registry (counter()/gauge()/histogram()) or borrowed via
// attachCounter()/attachGauge() — the bridge for pre-existing state such
// as runtime::RobustnessStats fields or lifecycle atomics.
//
// Hot-path contract: increments are branch-free (no null checks, no
// locks); the registry mutex is touched only at registration and render
// time. Rendering concurrent with writers is safe but sees an unordered
// snapshot; totals are exact once writers quiesce.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aalo::obs {

/// Monotonic counter: one relaxed atomic. Mirrors the
/// std::atomic<uint64_t> calls used by the control-plane stats structs
/// (fetch_add with a discarded result, load).
class Counter {
 public:
  Counter(std::uint64_t initial = 0) noexcept  // NOLINT: implicit, {0} init
      : v_(initial) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void fetch_add(std::uint64_t n,
                 std::memory_order = std::memory_order_relaxed) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void add(std::uint64_t n) noexcept { fetch_add(n); }

  std::uint64_t load(std::memory_order = std::memory_order_relaxed) const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_;
};

/// Last-write-wins double value.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    std::uint64_t old = bits_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + delta);
    } while (!bits_.compare_exchange_weak(old, next, std::memory_order_relaxed));
  }
  double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{0};  // 0 is the bit pattern of +0.0.
};

struct HistogramOptions {
  /// First (smallest) bucket upper bound; log-spaced ladder grows from it.
  double first_bound = 1e-6;
  /// Geometric growth factor between consecutive bounds.
  double growth = 2.0;
  /// Number of finite bounds; one implicit +Inf overflow bucket follows.
  int num_bounds = 28;
};

/// Fixed-bucket histogram with log-spaced bounds; observe() is lock-free.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(HistogramOptions options = {});
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }
  /// q in [0, 1]; linear interpolation inside the landing bucket
  /// (util::bucketQuantile). 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is overflow.
  std::vector<std::uint64_t> bucketCounts() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Names instruments and renders exposition. Keys are (family, labels);
/// entries render in sorted order so output is deterministic.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Owned instruments. Re-requesting an existing (name, labels) pair of
  /// the same kind returns the same instrument; a kind clash throws.
  /// `labels` is a preformatted Prometheus label list without braces,
  /// e.g. `scheduler="aalo-dclas"`.
  Counter& counter(const std::string& name, const std::string& help = "",
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help = "",
               const std::string& labels = "");
  LatencyHistogram& histogram(const std::string& name, const std::string& help = "",
                              HistogramOptions options = {},
                              const std::string& labels = "");

  /// Borrowed instruments: the registry stores only a read callback, so
  /// pre-existing counters/atomics surface without being moved. The
  /// referenced state must outlive the registry entry.
  void attachCounter(const std::string& name, const std::string& help,
                     std::function<std::uint64_t()> read,
                     const std::string& labels = "");
  void attachCounter(const std::string& name, const std::string& help,
                     const Counter& c, const std::string& labels = "");
  void attachGauge(const std::string& name, const std::string& help,
                   std::function<double()> read, const std::string& labels = "");

  /// Prometheus text exposition: # HELP / # TYPE once per family, then
  /// one sample line per entry (histograms expand to _bucket/_sum/_count).
  std::string renderPrometheus() const;
  /// JSON dump shaped like BENCH_*.json: {"context": {...}, "metrics":
  /// [...]} with p50/p95/p99 precomputed for histograms.
  std::string renderJson() const;
  /// Writes renderPrometheus() to `path` and renderJson() to
  /// `path` + ".json". Returns false if either file cannot be written.
  bool dumpFiles(const std::string& path) const;

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::string family;
    std::string labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;

    std::uint64_t counterValue() const {
      return counter_fn ? counter_fn() : counter->load();
    }
    double gaugeValue() const { return gauge_fn ? gauge_fn() : gauge->value(); }
  };

  Entry& insert(const std::string& name, const std::string& labels, Kind kind,
                const std::string& help);

  mutable std::mutex mutex_;
  /// Key = family + '\x01' + labels: sorts families together with their
  /// label variants adjacent, which the Prometheus renderer relies on.
  std::map<std::string, Entry> entries_;
};

/// Shortest-round-trip decimal formatting (std::to_chars) — deterministic
/// across runs and build types, used by both renderers.
std::string formatDouble(double v);

}  // namespace aalo::obs
