// star-materialize: a many-to-many star S(sa, sb) |x| T(tb, tc) whose
// materialised result is 32x larger than its input. Enumeration,
// projection and the sort/dedup sink do most of the work; f-tree search
// takes microseconds and grounding a small share. The projected statements
// hide the join attribute, and every (sa, tc) pair comes from every join
// value: the flat join holds 16 copies of each projected row, which the
// engine's projection and the sink's sort must remove.
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "harness.h"
#include "result_hash.h"

namespace perfbench {
namespace {

// Sized so that the largest result (16k rows, 512 KiB materialised) stays
// below the engine's parallel-enumeration cutoff of 32768 tuples and within
// a core's 2 MiB L2 on the host the benchmark was written on. At 8x this
// size the result was materialised by the pool threads, and their
// per-thread malloc arenas made the peak RSS of one input vary between
// 19.7 and 25 MiB from run to run; at this size it varies by about 1%.
constexpr int64_t kBDomain = 16;     // join values
constexpr int64_t kSideValues = 32;  // distinct sa and distinct tc values
constexpr int64_t kValueRange = 1'000'000;

/// `n` distinct values drawn from [1, kValueRange].
std::vector<int64_t> DistinctValues(int64_t n, fdb::Rng& rng) {
  std::set<int64_t> seen;
  std::vector<int64_t> out;
  while (static_cast<int64_t>(out.size()) < n) {
    const int64_t v = rng.Uniform(1, kValueRange);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

class StarWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    db_ = std::make_unique<fdb::Database>();
    fdb::Rng rng(seed);
    const fdb::RelId s = db_->CreateRelation("S", {"sa", "sb"});
    const fdb::RelId t = db_->CreateRelation("T", {"tb", "tc"});
    // S pairs every join value with all kSideValues sa values, T with all
    // kSideValues tc values: kBDomain * kSideValues^2 join rows, but only
    // kSideValues^2 distinct (sa, tc) pairs. The seed draws the sa and tc
    // values and the insertion order; the join values stay 1..kBDomain, so
    // the sb <= k statements select the same share on every seed.
    const std::vector<int64_t> sa = DistinctValues(kSideValues, rng);
    const std::vector<int64_t> tc = DistinctValues(kSideValues, rng);
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t b = 1; b <= kBDomain; ++b) {
      for (int64_t v = 0; v < kSideValues; ++v) pairs.emplace_back(b, v);
    }
    rng.Shuffle(pairs);
    for (const auto& [b, v] : pairs) db_->Insert(s, {sa[static_cast<size_t>(v)], b});
    rng.Shuffle(pairs);
    for (const auto& [b, v] : pairs) db_->Insert(t, {b, tc[static_cast<size_t>(v)]});
    engine_ = std::make_unique<fdb::Engine>(db_.get());
    const std::string from = " FROM S, T WHERE sb = tb";
    const std::string half = " AND sb <= " + std::to_string(kBDomain / 2);
    const std::string quarter = " AND sb <= " + std::to_string(kBDomain / 4);
    // An odd number of statements: with every statement run equally
    // often, the median query is the middle statement's, not a point
    // between two statements' latencies.
    sql_ = {"SELECT *" + from,
            "SELECT sa, tc" + from,
            "SELECT *" + from + half,
            "SELECT sa, tc" + from + half,
            "SELECT *" + from + quarter};
    for (size_t i = 0; i < sql_.size(); ++i) Execute(i);
  }

  // The rdb flat join of each statement. A projected statement must have
  // fewer rows than its join without the projection, or its check could
  // not catch a sink that stops deduplicating.
  void BuildReferences() override {
    for (const std::string& sql : sql_) {
      fdb::Query q = engine_->Parse(sql);
      refs_.push_back(DigestRelation(engine_->ExecuteRdb(q).relation));
      if (!q.projection.Empty()) {
        q.projection = {};
        FDB_CHECK_MSG(refs_.back().rows < engine_->ExecuteRdb(q).NumTuples(),
                      "projected star statement has no duplicates to remove");
      }
    }
  }

 protected:
  fdb::Database& db() override { return *db_; }
  fdb::Engine& engine() override { return *engine_; }
  std::vector<std::string> Statements() const override { return sql_; }
  size_t NumStatements() const override { return sql_.size(); }

  Answer Run(size_t i) override {
    auto [rel, bytes] = Execute(i);
    return {bytes, Check(std::move(rel), i)};
  }

  Answer RunTraced(size_t i, Tracer* tracer, Output* out) override {
    fdb::Query q;
    {
      Tracer::Scope s(tracer, "sql.parse");
      q = engine_->Parse(sql_[i]);
    }
    const fdb::QueryInfo info = fdb::AnalyzeQuery(db_->catalog(), q);
    fdb::FTreeSearchResult tree;
    {
      Tracer::Scope s(tracer, "opt.ftree_search");
      tree = engine_->OptimizeFlat(q);
    }
    fdb::FRep rep{fdb::FTree{}};
    {
      Tracer::Scope s(tracer, "core.ground");
      rep = fdb::GroundQuery(tree.tree, db_->RelationPtrs(q.rels),
                             q.const_preds);
    }
    SampleGround(rep, out);
    if (info.projection != info.all_attrs) {
      Tracer::Scope s(tracer, "core.project");
      rep = fdb::Project(rep, info.projection);
    }
    fdb::EnumKernel kernel = [&] {
      Tracer::Scope s(tracer, "core.kernel_compile");
      return fdb::EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
    }();
    fdb::Relation rel = [&] {
      Tracer::Scope s(tracer, "core.materialize");
      return fdb::MaterializeVisible(rep, fdb::EnumerateOptions{}, &kernel);
    }();
    return {static_cast<double>(rep.MemoryBytes()), Check(std::move(rel), i)};
  }

 private:
  std::function<bool()> Check(fdb::Relation rel, size_t i) const {
    return [this, rel = std::move(rel), i] {
      return DigestRelation(rel) == refs_[i];
    };
  }

  /// SQL text to materialised relation, through the public API.
  std::pair<fdb::Relation, double> Execute(size_t i) {
    fdb::FdbResult res = engine_->Execute(sql_[i]);
    const fdb::EnumKernel kernel =
        fdb::EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true);
    return {engine_->MaterializeResult(res, &kernel),
            static_cast<double>(res.rep.MemoryBytes())};
  }

  std::unique_ptr<fdb::Database> db_;
  std::unique_ptr<fdb::Engine> engine_;
  std::vector<std::string> sql_;
  std::vector<RowSetDigest> refs_;
};

}  // namespace

std::unique_ptr<Workload> MakeStarWorkload() {
  return std::make_unique<StarWorkload>();
}

}  // namespace perfbench
