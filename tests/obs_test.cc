// Observability layer: counter/gauge/histogram semantics, bucket
// quantiles, registry ownership rules, and — most importantly — the
// exposition formats. The Prometheus text and JSON renders are pinned
// verbatim (golden strings) so any formatting drift that would break
// downstream scrapers or the BENCH_*.json tooling fails loudly here.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "net/metrics.h"
#include "obs/metrics.h"
#include "runtime/metrics.h"
#include "runtime/robustness.h"
#include "sched/dclas.h"
#include "sim/metrics.h"
#include "tests/helpers.h"
#include "util/stats.h"

namespace aalo {
namespace {

TEST(ObsCounter, StartsAtInitialAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.load(), 0u);
  c.fetch_add(3);
  c.fetch_add(4);
  EXPECT_EQ(c.load(), 7u);
  obs::Counter seeded{41};
  seeded.add(1);
  EXPECT_EQ(seeded.load(), 42u);
}

TEST(ObsGauge, SetAddValue) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.25);
  EXPECT_EQ(g.value(), 1.25);
}

TEST(ObsHistogram, BucketsCountAndSum) {
  obs::LatencyHistogram h(
      obs::HistogramOptions{.first_bound = 1.0, .growth = 2.0, .num_bounds = 3});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bounds()[0], 1.0);
  EXPECT_EQ(h.bounds()[1], 2.0);
  EXPECT_EQ(h.bounds()[2], 4.0);
  h.observe(0.5);   // le 1
  h.observe(1.0);   // le 1 (upper bound is inclusive)
  h.observe(3.0);   // le 4
  h.observe(100.0); // +Inf overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 104.5);
  const std::vector<std::uint64_t> counts = h.bucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(ObsHistogram, RejectsBadOptions) {
  EXPECT_THROW(obs::LatencyHistogram(obs::HistogramOptions{.num_bounds = 0}),
               std::invalid_argument);
  EXPECT_THROW(obs::LatencyHistogram(obs::HistogramOptions{.first_bound = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(obs::LatencyHistogram(obs::HistogramOptions{.growth = 1.0}),
               std::invalid_argument);
}

TEST(ObsBucketQuantile, InterpolatesWithinBucket) {
  // Buckets: (0,1], (1,2], (2,4], overflow. 10 observations in (0,1].
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts = {10, 0, 0, 0};
  EXPECT_DOUBLE_EQ(util::bucketQuantile(bounds, counts, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(util::bucketQuantile(bounds, counts, 1.0), 1.0);
  const std::vector<std::uint64_t> split = {5, 5, 0, 0};
  // Rank 5 lands exactly at the end of the first bucket.
  EXPECT_DOUBLE_EQ(util::bucketQuantile(bounds, split, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(util::bucketQuantile(bounds, split, 0.75), 1.5);
}

TEST(ObsBucketQuantile, OverflowClampsToLastBound) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::uint64_t> counts = {0, 0, 7};
  EXPECT_DOUBLE_EQ(util::bucketQuantile(bounds, counts, 0.99), 2.0);
  const std::vector<std::uint64_t> empty = {0, 0, 0};
  EXPECT_DOUBLE_EQ(util::bucketQuantile(bounds, empty, 0.5), 0.0);
}

TEST(ObsHistogram, QuantileMatchesBucketQuantile) {
  obs::LatencyHistogram h(
      obs::HistogramOptions{.first_bound = 1e-3, .growth = 10.0, .num_bounds = 4});
  for (int i = 0; i < 100; ++i) h.observe(0.05);
  const double p50 = h.quantile(0.5);
  // All mass in the (0.01, 0.1] bucket: interpolation stays inside it.
  EXPECT_GT(p50, 0.01);
  EXPECT_LE(p50, 0.1);
}

TEST(ObsRegistry, DeduplicatesAndRejectsKindClashes) {
  obs::Registry r;
  obs::Counter& a = r.counter("aalo_x_total", "x");
  obs::Counter& b = r.counter("aalo_x_total", "x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_THROW(r.gauge("aalo_x_total"), std::logic_error);
  // Same family, different labels: distinct instruments.
  obs::Counter& c = r.counter("aalo_x_total", "x", "k=\"v\"");
  EXPECT_NE(&a, &c);
  EXPECT_EQ(r.size(), 2u);
}

TEST(ObsRegistry, AttachedCounterIsReadOnlyBridge) {
  obs::Registry r;
  obs::Counter external;
  r.attachCounter("aalo_ext_total", "bridged", external);
  external.fetch_add(9);
  EXPECT_NE(r.renderPrometheus().find("aalo_ext_total 9"), std::string::npos);
  // Requesting it as an owned counter is a misuse, not a silent alias.
  EXPECT_THROW(r.counter("aalo_ext_total"), std::logic_error);
}

// The golden exposition: any change to this string is a format break for
// scrapers, so an intentional renderer change must update it consciously.
TEST(ObsRegistry, GoldenPrometheusExposition) {
  obs::Registry r;
  r.counter("aalo_test_frames_total", "Frames seen", "dir=\"in\"").fetch_add(3);
  r.counter("aalo_test_frames_total", "Frames seen", "dir=\"out\"").fetch_add(5);
  r.gauge("aalo_test_daemons", "Connected daemons").set(2);
  obs::LatencyHistogram& h = r.histogram(
      "aalo_test_latency_seconds", "Report latency",
      obs::HistogramOptions{.first_bound = 0.001, .growth = 2.0, .num_bounds = 3});
  h.observe(0.0005);
  h.observe(0.003);
  h.observe(2.0);
  const std::string expected =
      "# HELP aalo_test_daemons Connected daemons\n"
      "# TYPE aalo_test_daemons gauge\n"
      "aalo_test_daemons 2\n"
      "# HELP aalo_test_frames_total Frames seen\n"
      "# TYPE aalo_test_frames_total counter\n"
      "aalo_test_frames_total{dir=\"in\"} 3\n"
      "aalo_test_frames_total{dir=\"out\"} 5\n"
      "# HELP aalo_test_latency_seconds Report latency\n"
      "# TYPE aalo_test_latency_seconds histogram\n"
      "aalo_test_latency_seconds_bucket{le=\"0.001\"} 1\n"
      "aalo_test_latency_seconds_bucket{le=\"0.002\"} 1\n"
      "aalo_test_latency_seconds_bucket{le=\"0.004\"} 2\n"
      "aalo_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "aalo_test_latency_seconds_sum 2.0035\n"
      "aalo_test_latency_seconds_count 3\n";
  EXPECT_EQ(r.renderPrometheus(), expected);
}

TEST(ObsRegistry, GoldenJsonDump) {
  obs::Registry r;
  r.counter("aalo_test_frames_total", "Frames seen", "dir=\"in\"").fetch_add(3);
  r.gauge("aalo_test_daemons", "Connected daemons").set(2);
  const std::string json = r.renderJson();
  EXPECT_NE(json.find("\"format\": \"aalo-metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"aalo_test_daemons\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"aalo_test_frames_total\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\": \"dir=\\\"in\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
}

TEST(ObsRegistry, JsonHistogramCarriesQuantiles) {
  obs::Registry r;
  obs::LatencyHistogram& h =
      r.histogram("aalo_test_seconds", "t", obs::HistogramOptions{});
  for (int i = 0; i < 50; ++i) h.observe(1e-4);
  const std::string json = r.renderJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 50"), std::string::npos);
}

TEST(ObsFormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(obs::formatDouble(2.0), "2");
  EXPECT_EQ(obs::formatDouble(0.001), "0.001");
  EXPECT_EQ(obs::formatDouble(-1.5), "-1.5");
}

// Every metric family the PR promises: the control-plane robustness
// counters (coordinator + daemon prefixes), the per-connection net
// counters, and the simulator family — all coexisting in one registry.
TEST(ObsRegistry, CoversAllComponentFamilies) {
  obs::Registry r;
  runtime::RobustnessStats stats;
  runtime::registerRobustnessStats(r, stats, "aalo_coordinator");
  runtime::registerRobustnessStats(r, stats, "aalo_daemon");
  net::ConnMetrics conn;
  net::registerConnMetrics(r, conn, "aalo_coordinator");

  // A tiny real simulation feeds the sim family.
  auto wl = testing::makeWorkload(
      2, {testing::makeJob(1, 0.0, {{0, 1, 4.0}}),
          testing::makeJob(2, 0.0, {{1, 0, 2.0}})});
  sched::DClasScheduler dclas;
  sim::SimOptions opts;
  opts.metrics = &r;
  const auto result = sim::runSimulation(wl, testing::unitFabric(2), dclas, opts);
  ASSERT_EQ(result.coflows.size(), 2u);

  const std::string text = r.renderPrometheus();
  for (const char* family :
       {"aalo_coordinator_daemons_evicted_total", "aalo_coordinator_delta_broadcasts_total",
        "aalo_daemon_delta_reports_total", "aalo_daemon_reports_suppressed_total",
        "aalo_daemon_resync_reports_total", "aalo_daemon_schedule_gaps_total",
        "aalo_daemon_schedule_digest_mismatches_total",
        "aalo_coordinator_schedule_digest_mismatches_total",
        "aalo_coordinator_ingress_passes_total",
        "aalo_coordinator_net_frames_in_total", "aalo_coordinator_net_bytes_out_total",
        "aalo_sim_rounds_total", "aalo_sim_reused_allocations_total",
        "aalo_sim_heap_rebuilds_total", "aalo_sim_cct_seconds_bucket"}) {
    EXPECT_NE(text.find(family), std::string::npos) << "missing family " << family;
  }
  // The sim rows carry the scheduler label.
  EXPECT_NE(text.find("aalo_sim_coflows_total{scheduler=\"aalo-dclas\"} 2"),
            std::string::npos);
}

TEST(ObsRegistry, DumpFilesWritesBothFormats) {
  obs::Registry r;
  r.counter("aalo_dump_total", "d").fetch_add(1);
  const std::string base = ::testing::TempDir() + "obs_dump_test.prom";
  ASSERT_TRUE(r.dumpFiles(base));
  std::ifstream prom(base);
  std::ifstream json(base + ".json");
  ASSERT_TRUE(prom.good());
  ASSERT_TRUE(json.good());
  std::string line;
  std::getline(prom, line);
  EXPECT_EQ(line, "# HELP aalo_dump_total d");
}

}  // namespace
}  // namespace aalo
