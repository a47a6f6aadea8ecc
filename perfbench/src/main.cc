// perfbench: runs one benchmark workload against the library's public API
// and prints one JSON record on stdout. perfbench/run.py builds this
// binary, invokes it and turns the record into the benchmark's result line.
//
//   perfbench --workload fb_dense --seed 7 --seconds 10 --trace 0 [--tiny]
//             [--spans out.json]
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  checkMany(1, ok ? 0 : 1, what);
}

void Result::checkMany(std::uint64_t attempted_n, std::uint64_t failed_n,
                       const std::string& what) {
  attempted += attempted_n;
  failed += failed_n;
  if (failed_n > 0 && failures.size() < 20) {
    failures.push_back(what + " (" + std::to_string(failed_n) + " of " +
                       std::to_string(attempted_n) + ")");
  }
}

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double clockSeconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double processCpuSeconds() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuSeconds() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double peakRssMib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench

namespace {

using perfbench::Metric;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void printMetrics(std::ostream& out, const std::map<std::string, Metric>& metrics) {
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
        << jsonNumber(m.value) << ", \"unit\": " << jsonString(m.unit) << "}";
    first = false;
  }
  out << "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fb_dense|fb_100k|coord_10k|"
               "loopback_shuffle --seed N --seconds S --trace 0|1 [--tiny] "
               "[--spans PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--spans") {
        options.spans_path = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  perfbench::Result result;
  try {
    if (options.workload == "fb_dense") {
      result = perfbench::runFbDense(options);
    } else if (options.workload == "fb_100k") {
      result = perfbench::runFb100k(options);
    } else if (options.workload == "coord_10k") {
      result = perfbench::runCoord10k(options);
    } else if (options.workload == "loopback_shuffle") {
      result = perfbench::runLoopbackShuffle(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  result.end_to_end["peak_rss_mb"] = Metric{perfbench::peakRssMib(), "MiB"};
  if (options.trace && !options.spans_path.empty()) {
    perfbench::Tracer::instance().writeSpans(options.spans_path);
  }

  std::ostringstream out;
  out << "{\"workload\": " << jsonString(options.workload)
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
#ifdef NDEBUG
      << ", \"ndebug\": true"
#else
      << ", \"ndebug\": false"
#endif
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    out << (i ? ", " : "") << jsonString(result.failures[i]);
  }
  out << "], \"end_to_end\": ";
  printMetrics(out, result.end_to_end);
  out << ", \"per_layer\": ";
  printMetrics(out, result.per_layer);
  out << ", \"detail\": ";
  printMetrics(out, result.detail);
  out << "}\n";
  std::cout << out.str() << std::flush;
  return 0;
}
