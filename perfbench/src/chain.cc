// chain-groupby: the one-to-many key/foreign-key chain
// Customer <- Orders <- Lineitem, grouped by customer nation and/or order
// priority. Grounding and the restructure/collapse of GROUP BY do nearly
// all the work; enumeration touches at most 125 groups. This is the case
// where factorised evaluation loses to the flat join plus hash aggregate.
#include <memory>

#include "common/rng.h"
#include "core/aggregate.h"
#include "harness.h"
#include "rdb/rdb.h"
#include "result_hash.h"

namespace perfbench {
namespace {

// Sized so that the grounded chain (~18k singletons) and its restructured
// copies stay within a core's 2 MiB L2 on the host the benchmark was
// written on. At 4x this size, two sets of ten runs spread by 13% and 42%
// (interquartile range of p50 over median); at this size by 12% and 7%.
constexpr size_t kLineitems = 6000;

class ChainWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    db_ = std::make_unique<fdb::Database>();
    fdb::Rng rng(seed);
    const fdb::RelId c = db_->CreateRelation("Customer", {"ck", "cnation"});
    const fdb::RelId o = db_->CreateRelation("Orders", {"ok", "o_ck", "opri"});
    const fdb::RelId l = db_->CreateRelation("Lineitem", {"lk", "l_ok", "qty"});
    const int64_t customers = kLineitems / 10, orders = kLineitems / 4;
    for (int64_t i = 1; i <= customers; ++i) {
      db_->Insert(c, {i, rng.Uniform(1, 25)});
    }
    for (int64_t i = 1; i <= orders; ++i) {
      db_->Insert(o, {i, rng.Uniform(1, customers), rng.Uniform(1, 5)});
    }
    for (int64_t i = 1; i <= static_cast<int64_t>(kLineitems); ++i) {
      db_->Insert(l, {i, rng.Uniform(1, orders), rng.Uniform(1, 50)});
    }
    engine_ = std::make_unique<fdb::Engine>(db_.get());
    const std::string from =
        " FROM Customer, Orders, Lineitem WHERE ck = o_ck AND ok = l_ok";
    const std::string filter = " AND qty <= 25";
    const std::vector<std::pair<std::string, std::string>> shapes = {
        {"SELECT cnation, COUNT(*), SUM(qty)", " GROUP BY cnation"},
        {"SELECT opri, MIN(qty), MAX(qty), AVG(qty)", " GROUP BY opri"},
        {"SELECT cnation, opri, COUNT(*), AVG(qty)", " GROUP BY cnation, opri"},
    };
    // An odd number of statements (see star.cc).
    for (const auto& [select, group] : shapes) {
      sql_.push_back(select + from + group);
      if (sql_.size() < 5) sql_.push_back(select + from + filter + group);
    }
    for (const std::string& sql : sql_) engine_->ExecuteAggregate(sql);
  }

  void BuildReferences() override {
    for (const std::string& sql : sql_) {
      const fdb::Query q = engine_->Parse(sql);
      const fdb::Relation flat = engine_->ExecuteRdb(q.SpjCore()).relation;
      refs_.push_back(
          DigestGroupedTable(fdb::HashGroupBy(flat, q.group_by, q.aggregates)));
    }
  }

 protected:
  fdb::Database& db() override { return *db_; }
  fdb::Engine& engine() override { return *engine_; }
  std::vector<std::string> Statements() const override { return sql_; }
  size_t NumStatements() const override { return sql_.size(); }

  Answer Run(size_t i) override {
    fdb::AggregateResult res = engine_->ExecuteAggregate(sql_[i]);
    return {static_cast<double>(res.grouped.rep.MemoryBytes()),
            Check(std::move(res.table), i)};
  }

  Answer RunTraced(size_t i, Tracer* tracer, Output* out) override {
    fdb::Query q;
    {
      Tracer::Scope s(tracer, "sql.parse");
      q = engine_->Parse(sql_[i]);
    }
    const fdb::Query core = q.SpjCore();
    fdb::FTreeSearchResult tree;
    {
      Tracer::Scope s(tracer, "opt.ftree_search");
      tree = engine_->OptimizeFlat(core);
    }
    fdb::FRep rep{fdb::FTree{}};
    {
      Tracer::Scope s(tracer, "core.ground");
      rep = fdb::GroundQuery(tree.tree, db_->RelationPtrs(q.rels),
                             q.const_preds);
    }
    SampleGround(rep, out);
    fdb::FPlan plan;
    fdb::GroupedRep grouped = [&] {
      Tracer::Scope s(tracer, "core.aggregate");
      return fdb::GroupByAggregate(rep, q.group_by, q.aggregates,
                                   &engine_->solver(), &plan);
    }();
    Sample(out, "core.agg_swaps", static_cast<double>(plan.steps.size()));
    fdb::GroupedTable table = [&] {
      Tracer::Scope s(tracer, "core.materialize_groups");
      fdb::GroupedTable t = grouped.Materialize(fdb::EnumerateOptions{});
      t.SortByKey();
      return t;
    }();
    return {static_cast<double>(grouped.rep.MemoryBytes()),
            Check(std::move(table), i)};
  }

 private:
  std::function<bool()> Check(fdb::GroupedTable table, size_t i) const {
    return [this, table = std::move(table), i] {
      return DigestGroupedTable(table) == refs_[i];
    };
  }

  std::unique_ptr<fdb::Database> db_;
  std::unique_ptr<fdb::Engine> engine_;
  std::vector<std::string> sql_;
  std::vector<RowSetDigest> refs_;
};

}  // namespace

std::unique_ptr<Workload> MakeChainWorkload() {
  return std::make_unique<ChainWorkload>();
}

}  // namespace perfbench
