// Process metrics: named relaxed-atomic counters, gauges and fixed-boundary
// latency histograms, with a Prometheus-style text exposition.
//
// The recording side is lock-free — Counter::Increment and
// Histogram::Record are a handful of relaxed atomic RMWs, cheap enough for
// the warm serve hot path (BM_MetricsOverhead in bench/micro_ops.cc keeps
// this honest). The registry's mutex is only taken to create a metric
// (get-or-create by name, once per metric per process lifetime) and to
// walk the name index on exposition; the returned references are stable
// for the registry's lifetime, so callers cache them at construction and
// never touch the index again.
//
// Consistency contract: values are individually coherent (monotone
// counters, torn reads impossible — each is one aligned atomic), but the
// exposition and cross-metric views are NOT a simultaneous snapshot:
// relaxed ordering means a reader may observe counter A's increment from a
// request before counter B's from the same request. Readers that hold a
// response in hand are guaranteed to see that request reflected (the
// increments are sequenced before the promise fulfilment that released the
// response, and the future's synchronisation publishes them); cross-counter
// invariants like hits + misses == lookups hold exactly only at
// quiescence. serve_test.cc StatsConsistencyContract pins this down.
//
// Naming convention (README "Observability"): fdb_<subsystem>_<what>, with
// counters suffixed _total and histograms suffixed _seconds. The
// exposition renders, per histogram, cumulative `_bucket{le="..."}` lines,
// `_sum`, `_count`, and derived `_p50` / `_p95` / `_p99` / `_max` gauges.
#ifndef FDB_COMMON_METRICS_H_
#define FDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fdb {

/// A monotone counter. Increment is one relaxed fetch_add.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A settable signed value (e.g. current cache entries).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// A latency histogram over fixed exponential boundaries (1us..10s in a
/// 1-2.5-5 ladder, plus an overflow bucket). Record is lock-free: one
/// relaxed fetch_add per bucket/count/sum and a CAS loop for the max.
/// p50/p95/p99 are extracted from the bucket counts on read.
class Histogram {
 public:
  static constexpr size_t kNumBounds = 22;

  /// Upper bucket boundaries in seconds, ascending; bucket i counts
  /// samples <= Bounds()[i] (Prometheus `le` semantics). Samples beyond
  /// the last bound land in the overflow (+Inf) bucket.
  static const std::array<double, kNumBounds>& Bounds();

  /// Records one sample. Negative/NaN samples clamp to 0 (a monotonic
  /// clock can in principle report equal instants).
  void Record(double seconds);

  struct Snapshot {
    uint64_t count = 0;
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
    std::array<uint64_t, kNumBounds + 1> buckets{};  ///< last = +Inf

    /// Linear-interpolated quantile from the bucket counts; `p` in (0, 1].
    /// Never exceeds max_seconds: the bucket holding the max interpolates
    /// up to the max, not to its bound. Returns 0 for an empty histogram;
    /// ranks in the overflow bucket return max_seconds.
    double Percentile(double p) const;
  };

  /// Coherent per-field values; not a simultaneous snapshot (see the
  /// header comment). count >= sum of buckets observed is not guaranteed
  /// either way under concurrent recording — equal only at quiescence.
  Snapshot snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBounds + 1> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> max_nanos_{0};
};

/// A named index of metrics. Instantiable — each QueryServer owns one, so
/// per-server counters in tests never interfere — with a process-wide
/// Global() for code without a natural owner. Get-or-create returns
/// references that stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) EXCLUDES(mu_);

  /// Prometheus-style text exposition: `# TYPE` comments, one line per
  /// counter/gauge, `_bucket{le="..."}` / `_sum` / `_count` / quantile
  /// lines per histogram. Deterministic order (names sorted per kind).
  std::string RenderPrometheus() const EXCLUDES(mu_);

  /// Process-wide registry for metrics without a natural owner.
  static MetricsRegistry& Global();

 private:
  mutable Mutex mu_;
  // node-based maps: values never move, so returned references are stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace fdb

#endif  // FDB_COMMON_METRICS_H_
