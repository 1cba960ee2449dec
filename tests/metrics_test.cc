// Tests for common/metrics.h: counters, gauges, histogram recording and
// quantile extraction, registry get-or-create semantics, the Prometheus
// text exposition, and lock-free concurrent recording.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace fdb {
namespace {

TEST(Counter, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  EXPECT_EQ(c.Value(), 1u);
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Increment(0);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
  g.Set(0);
  EXPECT_EQ(g.Value(), 0);
}

TEST(Histogram, BoundsAreStrictlyAscending) {
  const auto& bounds = Histogram::Bounds();
  ASSERT_EQ(bounds.size(), Histogram::kNumBounds);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at " << i;
  }
  EXPECT_GT(bounds.front(), 0.0);
}

TEST(Histogram, EmptySnapshot) {
  Histogram h;
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum_seconds, 0.0);
  EXPECT_EQ(s.max_seconds, 0.0);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
  for (uint64_t b : s.buckets) EXPECT_EQ(b, 0u);
}

TEST(Histogram, RecordFillsCountSumMax) {
  Histogram h;
  h.Record(0.001);
  h.Record(0.002);
  h.Record(0.004);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum_seconds, 0.007, 1e-6);
  EXPECT_NEAR(s.max_seconds, 0.004, 1e-6);
  uint64_t total = 0;
  for (uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, 3u);
}

TEST(Histogram, BucketAssignmentMatchesLeSemantics) {
  const auto& bounds = Histogram::Bounds();
  Histogram h;
  // A sample exactly on a boundary counts into that boundary's bucket
  // (Prometheus `le` = less-or-equal).
  h.Record(bounds[3]);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[3], 1u);
  // Just past the boundary lands one bucket later.
  Histogram h2;
  h2.Record(bounds[3] * 1.0001);
  Histogram::Snapshot s2 = h2.snapshot();
  EXPECT_EQ(s2.buckets[4], 1u);
}

TEST(Histogram, OverflowBucketAndMax) {
  Histogram h;
  h.Record(1e6);  // way past the last bound
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[Histogram::kNumBounds], 1u);
  EXPECT_NEAR(s.max_seconds, 1e6, 1.0);
  // A rank landing in the overflow bucket reports the max.
  EXPECT_NEAR(s.Percentile(0.99), 1e6, 1.0);
}

TEST(Histogram, NegativeAndNanClampToZero) {
  Histogram h;
  h.Record(-1.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[0], 2u);  // clamped samples fall in the first bucket
  EXPECT_EQ(s.sum_seconds, 0.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBracketed) {
  Histogram h;
  // 100 samples spread over four decades.
  for (int i = 0; i < 25; ++i) h.Record(5e-6);
  for (int i = 0; i < 25; ++i) h.Record(5e-5);
  for (int i = 0; i < 25; ++i) h.Record(5e-4);
  for (int i = 0; i < 25; ++i) h.Record(5e-3);
  Histogram::Snapshot s = h.snapshot();
  double p50 = s.Percentile(0.5);
  double p95 = s.Percentile(0.95);
  double p99 = s.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, s.max_seconds);
  // p50 must fall within the second quarter's bucket range.
  EXPECT_GE(p50, 2.5e-5);
  EXPECT_LE(p50, 5e-5);
  // p99 lies in the top quarter.
  EXPECT_GE(p99, 2.5e-3);
}

TEST(Histogram, PercentilesNeverExceedTheMax) {
  // Every sample sits low in the (5ms, 10ms] bucket: interpolating across
  // the whole bucket would put p99 near 10 ms, past the observed max.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(6e-3);
  Histogram::Snapshot s = h.snapshot();
  for (double p : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_LE(s.Percentile(p), s.max_seconds) << "p=" << p;
  }
  EXPECT_EQ(s.Percentile(1.0), s.max_seconds);
}

TEST(MetricsRegistry, GetOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("fdb_test_total");
  Counter& b = reg.GetCounter("fdb_test_total");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
  // Distinct kinds share a namespace without colliding.
  Gauge& g = reg.GetGauge("fdb_test_total");
  g.Set(5);
  EXPECT_EQ(a.Value(), 1u);
  Histogram& h1 = reg.GetHistogram("fdb_test_seconds");
  Histogram& h2 = reg.GetHistogram("fdb_test_seconds");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// Minimal exposition parser: fills metric-line values keyed by the full
// name-with-labels, skipping # comments. Fails the test on malformed lines
// (void return because gtest ASSERT_* requires it).
void ParseExposition(const std::string& text,
                     std::map<std::string, double>* out) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    (*out)[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
  }
}

TEST(MetricsRegistry, ExpositionParsesAndMatchesValues) {
  MetricsRegistry reg;
  reg.GetCounter("fdb_a_total").Increment(3);
  reg.GetGauge("fdb_b_entries").Set(-2);
  Histogram& h = reg.GetHistogram("fdb_c_seconds");
  h.Record(0.5);
  h.Record(2.0);

  std::string text = reg.RenderPrometheus();
  std::map<std::string, double> vals;
  ParseExposition(text, &vals);

  EXPECT_EQ(vals.at("fdb_a_total"), 3.0);
  EXPECT_EQ(vals.at("fdb_b_entries"), -2.0);
  EXPECT_EQ(vals.at("fdb_c_seconds_count"), 2.0);
  EXPECT_NEAR(vals.at("fdb_c_seconds_sum"), 2.5, 1e-6);
  EXPECT_NEAR(vals.at("fdb_c_seconds_max"), 2.0, 1e-6);
  EXPECT_EQ(vals.at("fdb_c_seconds_bucket{le=\"+Inf\"}"), 2.0);
  EXPECT_TRUE(vals.count("fdb_c_seconds_p50"));
  EXPECT_TRUE(vals.count("fdb_c_seconds_p95"));
  EXPECT_TRUE(vals.count("fdb_c_seconds_p99"));
  // # TYPE declarations present for each kind.
  EXPECT_NE(text.find("# TYPE fdb_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fdb_b_entries gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fdb_c_seconds histogram"), std::string::npos);
}

TEST(MetricsRegistry, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("fdb_lat_seconds");
  h.Record(1e-6);
  h.Record(1e-3);
  h.Record(1.0);

  std::map<std::string, double> vals;
  ParseExposition(reg.RenderPrometheus(), &vals);
  // Cumulative: each bucket's value is >= its predecessor's, ending at the
  // total count in +Inf.
  double prev = 0.0;
  for (double bound : Histogram::Bounds()) {
    char le[32];
    std::snprintf(le, sizeof(le), "%g", bound);  // exposition label format
    std::string key = "fdb_lat_seconds_bucket{le=\"" + std::string(le) + "\"}";
    auto it = vals.find(key);
    ASSERT_NE(it, vals.end()) << key;
    EXPECT_GE(it->second, prev);
    prev = it->second;
  }
  EXPECT_EQ(vals.at("fdb_lat_seconds_bucket{le=\"+Inf\"}"), 3.0);
}

TEST(MetricsRegistry, ConcurrentRecordingLosesNothing) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("fdb_conc_total");
  Histogram& h = reg.GetHistogram("fdb_conc_seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Record(1e-6 * (t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t total = 0;
  for (uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
}

}  // namespace
}  // namespace fdb
