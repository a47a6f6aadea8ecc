// `--metrics-dump PATH [--metrics-interval S]` of aalo_coordinator and
// aalo_daemon: the tool's main loop writes the component's registry
// (Prometheus text at PATH, JSON at PATH.json) every S seconds, and once
// more after the component stops.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace aalo::tools {

class MetricsDump {
 public:
  /// An empty `path` writes nothing; `interval` <= 0 writes only at stop.
  MetricsDump(std::string path, double interval)
      : path_(std::move(path)), interval_(interval) {}

  /// Called from the main loop: writes once `interval` has passed.
  void tick(const obs::Registry& registry) {
    if (interval_ > 0 && Clock::now() >= next_) write(registry);
  }

  void write(const obs::Registry& registry) {
    if (path_.empty()) return;
    if (!registry.dumpFiles(path_)) {
      std::fprintf(stderr, "failed to write metrics to %s\n", path_.c_str());
    }
    next_ = Clock::now() + std::chrono::duration<double>(interval_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  std::string path_;
  double interval_;
  std::chrono::time_point<Clock, std::chrono::duration<double>> next_ =
      Clock::now() + std::chrono::duration<double>(interval_);
};

}  // namespace aalo::tools
