// Shared pieces of the benchmark program: options, the result record and
// clock/percentile helpers. Each workload lives in its own file and fills
// one Result; main.cc prints it as JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured wall time. A traced run splits it: half untraced (the
  /// overhead baseline), half traced.
  double seconds = 10;
  bool trace = false;
  /// "tiny" shrinks every workload for the self-test; "full" is the
  /// benchmark proper.
  bool tiny = false;
  /// Where the traced run writes its sampled raw spans ("" = nowhere).
  std::string spans_path;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  /// End-to-end metrics (BENCHMARK.json end_to_end), from untraced work.
  std::map<std::string, Metric> end_to_end;
  /// Per-layer ledger (BENCHMARK.json per_layer), traced runs only.
  std::map<std::string, Metric> per_layer;
  /// The workload's own end-to-end figures under their specific names
  /// (replay_s, coord_lag_p99_ms, fluid_err, ...): printed, not gated.
  std::map<std::string, Metric> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure messages.

  /// Counts one output check or operation; records `what` if it failed.
  void check(bool ok, const std::string& what);
  void checkMany(std::uint64_t attempted_n, std::uint64_t failed_n,
                 const std::string& what);
};

double secondsSince(Clock::time_point start);
double processCpuSeconds();
double threadCpuSeconds();
/// Peak resident set of this process, MiB.
double peakRssMib();
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

/// SplitMix64: derives independent seeds and drives the cheap per-daemon
/// generators (a std::mt19937_64 per logical daemon would cost 25 MB).
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Result runFbDense(const Options& options);
Result runFb100k(const Options& options);
Result runCoord10k(const Options& options);
Result runLoopbackShuffle(const Options& options);

}  // namespace perfbench
