// Shared pieces of fdb_perfbench: the span recorder, the raw output
// record, the workload interface and the layer probes.
//
// fdb_perfbench measures; perfbench/run.py turns the raw record into metrics.
// Spans are recorded only here, around calls into the engine's public
// functions — nothing inside src/ is instrumented.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "common/rng.h"
#include "common/timer.h"
#include "opt/estimates.h"

namespace perfbench {

/// In-memory span recorder. A span has a name, a start and end time, the
/// index of its parent span (-1 for none) and the id of the query it
/// belongs to (-1 for layer probes, which run outside any query). Spans
/// close in LIFO order; nothing is written until Write().
class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string
    int32_t parent;
    int64_t query;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes the scope a no-op that never reads the clock.
  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int32_t index_ = -1;
  };

  Tracer() : origin_(fdb::MonotonicClock::now()) {}

  /// Spans opened from now on belong to query `id` (-1: no query).
  void set_query(int64_t id) { query_ = id; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"spans": [[name, parent, query, start_ns, end_ns], ...]}.
  void Write(std::ostream& os) const;

 private:
  int64_t NowNs() const;

  fdb::MonotonicClock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t query_ = -1;
};

/// Raw measurements of one run, written as JSON for run.py.
struct Output {
  double setup_s = 0;                ///< the process's one set-up
  double epoch_s = 0;                ///< measured wall time of the queries
  std::vector<double> latency_s;     ///< untraced queries
  std::vector<double> result_bytes;  ///< FRep::MemoryBytes per query
  uint64_t attempted = 0;
  uint64_t wrong = 0;               ///< answers differing from the reference
  uint64_t errors = 0;              ///< exceptions and non-OK responses
  std::vector<double> traced_latency_s;
  std::map<std::string, std::vector<double>> samples;  ///< counts, ratios
  std::string stats_exposition;     ///< a QueryServer's STATS body
  uint64_t peak_rss_kb = 0;
  std::vector<std::string> notes;   ///< first few mismatch descriptions

  void Note(const std::string& s) {
    if (notes.size() < 8) notes.push_back(s);
  }
  void Write(std::ostream& os) const;
};

/// One benchmark workload. Setup() is what setup_s times: data generation,
/// database load and the first execution of every distinct statement.
/// BuildReferences() computes the expected answers by an independent path
/// and is not timed. Queries run one at a time on the caller thread, in
/// rounds: each round runs every statement once, in a seeded order, so
/// every run has the same statement mix.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void Setup(uint64_t seed) = 0;
  virtual void BuildReferences() = 0;

  /// Runs the workload untraced for `seconds` on the `epoch`-th allowed
  /// CPU (modulo their number), recording per-query latency, result size
  /// and correctness.
  void Measure(double seconds, int epoch, Output* out);

  /// Re-enacts the workload through the individual layer calls under
  /// `tracer` for `seconds`, recording spans and per-layer samples, and
  /// ends with a ServeProbe over its statements for the serve.* STATS
  /// metrics (Output::stats_exposition).
  void MeasureTraced(double seconds, Tracer* tracer, Output* out);

 protected:
  /// A query's result size and its answer check. The check runs after the
  /// query's latency (or span) has been taken, so comparing against the
  /// reference is never timed.
  struct Answer {
    double result_bytes = 0;
    std::function<bool()> check;
  };
  /// Database, engine and SQL text of each statement, for the probes.
  virtual fdb::Database& db() = 0;
  virtual fdb::Engine& engine() = 0;
  virtual std::vector<std::string> Statements() const = 0;
  virtual size_t NumStatements() const = 0;
  /// Runs statement `i` through the public API.
  virtual Answer Run(size_t i) = 0;
  /// Runs statement `i` through the individual layer calls, each under a
  /// span of `tracer`.
  virtual Answer RunTraced(size_t i, Tracer* tracer, Output* out) = 0;

  uint64_t seed_ = 0;
};

std::unique_ptr<Workload> MakeStarWorkload();
std::unique_ptr<Workload> MakeChainWorkload();
std::unique_ptr<Workload> MakeFplanWorkload();

/// Every traced run re-enacts at least this many queries.
constexpr int64_t kMinTracedQueries = 200;
/// One LayerProbe follows every this many traced queries.
constexpr int64_t kProbeEvery = 10;

/// Calls every layer's public function once on data of the running
/// workload: the statement `sql` is parsed, optimised and grounded, and
/// its result is projected, enumerated, sorted, aggregated, restructured
/// by f-plan operators and rendered. Spans carry query id -1, so they are
/// outside every query; they make each per-layer metric measured on every
/// workload, also where the workload's own queries do not call the layer.
void LayerProbe(fdb::Database& db, fdb::Engine& engine, const std::string& sql,
                Tracer* tracer, Output* out);

/// A short QueryServer run over `statements` (two client threads)
/// whose STATS exposition fills Output::stats_exposition.
void ServeProbe(fdb::Database& db, const std::vector<std::string>& statements,
                Output* out);

/// `rows` values spread evenly over [lo, hi] (each value appears
/// rows / (hi - lo + 1) times, rounded), in seeded random order. Columns
/// drawn this way keep join sizes nearly equal across seeds, so the seed
/// changes the inputs but hardly the work.
std::vector<int64_t> BalancedColumn(size_t rows, int64_t lo, int64_t hi,
                                    fdb::Rng& rng);

/// Appends a value to a named sample list.
inline void Sample(Output* out, const std::string& name, double v) {
  out->samples[name].push_back(v);
}

/// Records the singleton count and bytes per singleton of a grounded
/// representation.
inline void SampleGround(const fdb::FRep& rep, Output* out) {
  const double singletons = static_cast<double>(rep.NumSingletons());
  Sample(out, "core.ground_singletons", singletons);
  if (singletons > 0) {
    Sample(out, "core.frep_bytes_per_singleton",
           static_cast<double>(rep.MemoryBytes()) / singletons);
  }
}

/// Records max(est/actual, actual/est) of the f-tree size estimate of
/// `rep` (opt/estimates.h) against its singleton count.
void SampleSizeQError(const fdb::DatabaseStats& stats, const fdb::FRep& rep,
                      Output* out);

/// Replays `plan` on `in` step by step, each step under a span named after
/// its operator, all under one "core.fplan_exec" span.
fdb::FRep ReplayPlan(const fdb::FRep& in, const fdb::FPlan& plan,
                     Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
