// fplan-factorised: queries on factorised input (Experiment 4 style). A
// random many-to-many instance (R = 4, A = 10: two binary and two ternary
// relations) is grounded once at set-up; each query adds one to three new
// equalities, optionally a constant selection and a projection, and runs
// through f-plan search and the swap/merge/absorb/select/project operators
// on that representation. The result is counted, not enumerated. This is
// the only workload whose queries run f-plan search and the operators.
#include <memory>

#include "common/rng.h"
#include "harness.h"
#include "storage/generator.h"

namespace perfbench {
namespace {

// Experiment 4's shape scaled x4: two binary relations of 256 rows, two
// ternary of 2048, values in [1, 20]. The rows are drawn once from a fixed
// seed; the workload seed relabels the value domain and orders the rows.
// Relabelling keeps every equality, and the statements' constant
// selections are equalities on relabelled constants, so every seed gives
// other inputs with the same query shapes and result sizes.
constexpr size_t kBinaryRows = 256;
constexpr size_t kTernaryRows = 2048;
constexpr int64_t kDomain = 20;
constexpr int kStatements = 11;  // odd, see star.cc
constexpr uint64_t kShapeSeed = 4;

struct Statement {
  std::vector<std::pair<fdb::AttrId, fdb::AttrId>> eqs;
  std::vector<fdb::ConstPred> preds;
  fdb::AttrSet projection;
  double expected = 0;  ///< reference tuple count
};

class FplanWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    db_ = std::make_unique<fdb::Database>();
    fdb::Rng rng(seed), rows_rng(kShapeSeed + 1);
    relabel_.resize(kDomain);
    for (int64_t v = 0; v < kDomain; ++v) relabel_[static_cast<size_t>(v)] = v + 1;
    rng.Shuffle(relabel_);
    const std::vector<std::pair<int, size_t>> shapes = {
        {2, kBinaryRows}, {2, kBinaryRows}, {3, kTernaryRows}, {3, kTernaryRows}};
    int next_attr = 0;
    for (size_t r = 0; r < shapes.size(); ++r) {
      const auto [arity, rows] = shapes[r];
      std::vector<std::string> cols;
      std::vector<std::vector<int64_t>> values;
      for (int c = 0; c < arity; ++c) {
        cols.push_back("a" + std::to_string(next_attr++));
        values.push_back(BalancedColumn(rows, 1, kDomain, rows_rng));
      }
      const fdb::RelId rid = db_->CreateRelation("r" + std::to_string(r), cols);
      std::vector<size_t> order(rows);
      for (size_t i = 0; i < rows; ++i) order[i] = i;
      rng.Shuffle(order);
      for (size_t i : order) {
        std::vector<fdb::Cell> row;
        for (const auto& col : values) row.emplace_back(Relabel(col[i]));
        db_->Insert(rid, row);
      }
      query_.rels.push_back(rid);
    }
    for (const auto& [a, b] : {std::pair{"a1", "a4"}, {"a3", "a7"},
                               {"a5", "a8"}, {"a0", "a9"}}) {
      query_.equalities.emplace_back(db_->Attr(a), db_->Attr(b));
    }
    engine_ = std::make_unique<fdb::Engine>(db_.get());
    base_ = engine_->EvaluateFlat(query_).rep;
    stats_ = fdb::DatabaseStats::Compute(db_->RelationPtrs(query_.rels));

    const fdb::QueryInfo info = fdb::AnalyzeQuery(db_->catalog(), query_);
    const std::vector<fdb::AttrId> attrs = info.all_attrs.ToVector();
    fdb::Rng shapes_rng(kShapeSeed);
    while (static_cast<int>(stmts_.size()) < kStatements) {
      const int j = static_cast<int>(stmts_.size());
      Statement st;
      st.eqs = fdb::DrawExtraEqualities(info.classes, 1 + j % 3, shapes_rng);
      if (j % 2 == 1) {
        st.preds.push_back({attrs[static_cast<size_t>(3 * j) % attrs.size()],
                            fdb::CmpOp::kNe, Relabel(kDomain / 2)});
      }
      if (j % 4 == 3) {
        for (size_t k = 0; k < attrs.size(); k += 2) st.projection.Add(attrs[k]);
      }
      stmts_.push_back(std::move(st));
    }
    for (size_t i = 0; i < stmts_.size(); ++i) Evaluate(i);
  }

  // The row count of the combined query (base equalities plus the new
  // ones, selection and projection) evaluated flat by the rdb baseline.
  void BuildReferences() override {
    for (Statement& st : stmts_) {
      st.expected =
          static_cast<double>(engine_->ExecuteRdb(Combined(st)).NumTuples());
    }
  }

 protected:
  fdb::Database& db() override { return *db_; }
  fdb::Engine& engine() override { return *engine_; }
  std::vector<std::string> Statements() const override {
    std::vector<std::string> out;
    for (const Statement& st : stmts_) out.push_back(Sql(Combined(st)));
    return out;
  }
  size_t NumStatements() const override { return stmts_.size(); }

  Answer Run(size_t i) override {
    fdb::FdbResult res = Evaluate(i);
    const double count = res.rep.CountTuples();
    return {static_cast<double>(res.rep.MemoryBytes()), Check(count, i)};
  }

  // EvaluateOnFRep's steps, each timed: f-plan search on the input tree,
  // then the constant selections, the searched plan and the projection,
  // replayed one operator at a time.
  Answer RunTraced(size_t i, Tracer* tracer, Output* out) override {
    const Statement& st = stmts_[i];
    fdb::FPlanSearchResult search = [&] {
      Tracer::Scope s(tracer, "opt.fplan_search");
      return engine_->OptimizeOnTree(base_.tree(), st.eqs);
    }();
    Sample(out, "opt.fplan_states", static_cast<double>(search.states_explored));
    fdb::FPlan plan;
    for (const fdb::ConstPred& p : st.preds) {
      plan.steps.push_back(fdb::PlanStep::MakeSelectConst(p.attr, p.op, p.value));
    }
    plan.steps.insert(plan.steps.end(), search.plan.steps.begin(),
                      search.plan.steps.end());
    if (!st.projection.Empty()) {
      plan.steps.push_back(fdb::PlanStep::MakeProject(st.projection));
    }
    Sample(out, "core.op_steps", static_cast<double>(plan.steps.size()));
    fdb::FRep rep = ReplayPlan(base_, plan, tracer);
    double count = 0;
    {
      Tracer::Scope s(tracer, "core.count");
      count = rep.CountTuples();
    }
    SampleSizeQError(stats_, rep, out);
    return {static_cast<double>(rep.MemoryBytes()), Check(count, i)};
  }

 private:
  std::function<bool()> Check(double count, size_t i) const {
    return [this, count, i] { return count == stmts_[i].expected; };
  }

  int64_t Relabel(int64_t v) const { return relabel_[static_cast<size_t>(v - 1)]; }

  fdb::FdbResult Evaluate(size_t i) {
    const Statement& st = stmts_[i];
    return engine_->EvaluateOnFRep(base_, st.eqs, st.preds, st.projection);
  }

  /// The flat query a statement amounts to: the base query plus its new
  /// equalities, selection and projection.
  fdb::Query Combined(const Statement& st) const {
    fdb::Query q = query_;
    q.equalities.insert(q.equalities.end(), st.eqs.begin(), st.eqs.end());
    q.const_preds = st.preds;
    q.projection = st.projection;
    return q;
  }

  /// `q` as SQL text, for the layer probes.
  std::string Sql(const fdb::Query& q) const {
    const fdb::Catalog& cat = db_->catalog();
    std::string sql = "SELECT ";
    if (q.projection.Empty()) sql += "*";
    for (fdb::AttrId a : q.projection) {
      sql += (sql.size() > 7 ? ", " : "") + cat.attr(a).name;
    }
    for (size_t r = 0; r < q.rels.size(); ++r) {
      sql += (r ? ", " : " FROM ") + cat.rel(q.rels[r]).name;
    }
    std::vector<std::string> conds;
    for (const auto& [a, b] : q.equalities) {
      conds.push_back(cat.attr(a).name + " = " + cat.attr(b).name);
    }
    for (const fdb::ConstPred& p : q.const_preds) {
      conds.push_back(cat.attr(p.attr).name + " " + fdb::CmpOpName(p.op) + " " +
                      std::to_string(p.value));
    }
    for (size_t c = 0; c < conds.size(); ++c) {
      sql += (c ? " AND " : " WHERE ") + conds[c];
    }
    return sql;
  }

  std::unique_ptr<fdb::Database> db_;
  fdb::Query query_;
  std::unique_ptr<fdb::Engine> engine_;
  fdb::FRep base_{fdb::FTree{}};
  fdb::DatabaseStats stats_;
  std::vector<Statement> stmts_;
  std::vector<int64_t> relabel_;  ///< value v is stored as relabel_[v - 1]
};

}  // namespace

std::unique_ptr<Workload> MakeFplanWorkload() {
  return std::make_unique<FplanWorkload>();
}

}  // namespace perfbench
