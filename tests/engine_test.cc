#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/print.h"
#include "storage/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::GroceryQ1;
using testing_util::GroceryQ2;
using testing_util::MakeGroceryDb;
using testing_util::SameRelation;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(MakeGroceryDb()), engine_(db_.get()) {}
  std::unique_ptr<Database> db_;
  Engine engine_;
};

TEST_F(EngineTest, Q1FlatEvaluationMatchesRdb) {
  Query q1 = GroceryQ1(*db_);
  FdbResult fdb = engine_.EvaluateFlat(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  fdb.rep.Validate();
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
  EXPECT_EQ(fdb.FlatTuples(), 14.0);
  // Factorised result is smaller than the flat one (many-to-many joins).
  EXPECT_LT(fdb.NumSingletons(), rdb.NumDataElements());
}

TEST_F(EngineTest, Q2HasLinearFactorisation) {
  Query q2 = GroceryQ2(*db_);
  FTreeSearchResult t = engine_.OptimizeFlat(q2);
  EXPECT_NEAR(t.cost, 1.0, 1e-6);  // s(Q2) = 1 (Example 5)
  FdbResult fdb = engine_.EvaluateFlat(q2);
  RdbResult rdb = engine_.ExecuteRdb(q2);
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
}

TEST_F(EngineTest, Example2JoinOfFactorisedResults) {
  // Q1 |x|_{location, item} Q2: evaluate both queries factorised, take the
  // product, then run an f-plan for the two extra equalities.
  FdbResult r1 = engine_.EvaluateFlat(GroceryQ1(*db_));
  Query q2 = GroceryQ2(*db_);
  FRep rep2 = engine_.EvaluateFlat(q2).rep;

  AttrId item = db_->Attr("o_item"), pitem = db_->Attr("p_item");
  AttrId loc = db_->Attr("s_location"), svloc = db_->Attr("sv_location");
  FdbResult joined =
      engine_.JoinFactorised(r1.rep, rep2, {{item, pitem}, {loc, svloc}});
  joined.rep.Validate();

  // Reference: the five-way flat join.
  Query big;
  big.rels = {static_cast<RelId>(db_->catalog().FindRelation("Orders")),
              static_cast<RelId>(db_->catalog().FindRelation("Store")),
              static_cast<RelId>(db_->catalog().FindRelation("Disp")),
              static_cast<RelId>(db_->catalog().FindRelation("Produce")),
              static_cast<RelId>(db_->catalog().FindRelation("Serve"))};
  big.equalities = {{db_->Attr("o_item"), db_->Attr("s_item")},
                    {db_->Attr("s_location"), db_->Attr("d_location")},
                    {db_->Attr("supplier"), db_->Attr("sv_supplier")},
                    {item, pitem},
                    {loc, svloc}};
  RdbResult flat = engine_.ExecuteRdb(big);
  EXPECT_TRUE(SameRelation(joined.rep, flat.relation));
}

TEST_F(EngineTest, SqlEndToEnd) {
  FdbResult res = engine_.Execute(
      "SELECT * FROM Orders, Store, Disp "
      "WHERE o_item = s_item AND s_location = d_location");
  EXPECT_EQ(res.FlatTuples(), 14.0);
}

TEST_F(EngineTest, SqlWithConstantAndProjection) {
  FdbResult res = engine_.Execute(
      "SELECT oid, s_location FROM Orders, Store "
      "WHERE o_item = s_item AND o_item = 'Milk'");
  res.rep.Validate();
  // Milk is ordered once (oid 1) and stocked in 3 locations.
  EXPECT_EQ(res.FlatTuples(), 3.0);
  EXPECT_EQ(res.rep.tree().VisibleAttrs(),
            AttrSet::Of({db_->Attr("oid"), db_->Attr("s_location")}));
}

TEST_F(EngineTest, ProjectionMatchesRdb) {
  Query q1 = GroceryQ1(*db_);
  q1.projection = AttrSet::Of({db_->Attr("oid"), db_->Attr("dispatcher")});
  FdbResult fdb = engine_.EvaluateFlat(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  fdb.rep.Validate();
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
}

TEST_F(EngineTest, ConstPredicatesMatchRdb) {
  Query q1 = GroceryQ1(*db_);
  q1.const_preds = {
      {db_->Attr("oid"), CmpOp::kGe, 2},
      {db_->Attr("dispatcher"), CmpOp::kEq,
       db_->dict().Lookup("Adnan")}};
  FdbResult fdb = engine_.EvaluateFlat(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  fdb.rep.Validate();
  EXPECT_TRUE(SameRelation(fdb.rep, rdb.relation));
}

TEST_F(EngineTest, GreedyEngineSameResult) {
  EngineOptions opts;
  opts.greedy_optimizer = true;
  Engine greedy(db_.get(), opts);
  FdbResult r1 = engine_.EvaluateFlat(GroceryQ1(*db_));
  // Run an extra join on the factorised result with both optimisers.
  AttrId oid = db_->Attr("oid"), disp = db_->Attr("dispatcher");
  (void)disp;
  FdbResult a = engine_.EvaluateOnFRep(r1.rep, {{oid, oid}});
  FdbResult b = greedy.EvaluateOnFRep(r1.rep, {{oid, oid}});
  EXPECT_EQ(MaterializeVisible(a.rep) == MaterializeVisible(b.rep), true);
}

TEST_F(EngineTest, EvaluateOnFRepWithConstAndProjection) {
  FdbResult r1 = engine_.EvaluateFlat(GroceryQ1(*db_));
  AttrId oid = db_->Attr("oid");
  AttrSet keep = AttrSet::Of({db_->Attr("o_item"), oid});
  FdbResult res = engine_.EvaluateOnFRep(
      r1.rep, {}, {{oid, CmpOp::kLe, 2}}, keep);
  res.rep.Validate();

  Query q1 = GroceryQ1(*db_);
  q1.const_preds = {{oid, CmpOp::kLe, 2}};
  q1.projection = keep;
  RdbResult rdb = engine_.ExecuteRdb(q1);
  EXPECT_TRUE(SameRelation(res.rep, rdb.relation));
}

// Experiment-4-shaped statements on a factorised input, each with an `=`
// constant selection: sigma_{A=c} makes A's node constant and
// normalisation moves it, so the f-plan must be searched on the selected
// tree. Searching on the input tree made absorb and swap steps address
// nodes that had moved (6 of these 11 statements threw).
TEST(EvaluateOnFRep, ConstantEqualitySelectionsMatchRdb) {
  constexpr int64_t kDomain = 20;
  Database db;
  Rng rows_rng(5);
  Query base;
  int next_attr = 0;
  for (const auto& [arity, rows] : std::vector<std::pair<int, size_t>>{
           {2, 256}, {2, 256}, {3, 2048}, {3, 2048}}) {
    std::vector<std::string> cols;
    std::vector<std::vector<int64_t>> values;
    for (int c = 0; c < arity; ++c) {
      cols.push_back("a" + std::to_string(next_attr++));
      std::vector<int64_t> col(rows);
      for (size_t i = 0; i < rows; ++i) {
        col[i] = 1 + static_cast<int64_t>(i) % kDomain;
      }
      rows_rng.Shuffle(col);
      values.push_back(std::move(col));
    }
    const RelId rid =
        db.CreateRelation("r" + std::to_string(base.rels.size()), cols);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Cell> row;
      for (const std::vector<int64_t>& col : values) row.emplace_back(col[i]);
      db.Insert(rid, row);
    }
    base.rels.push_back(rid);
  }
  for (const auto& [a, b] : {std::pair{"a1", "a4"}, {"a3", "a7"},
                             {"a5", "a8"}, {"a0", "a9"}}) {
    base.equalities.emplace_back(db.Attr(a), db.Attr(b));
  }
  Engine engine(&db);
  const FRep input = engine.EvaluateFlat(base).rep;
  const QueryInfo info = AnalyzeQuery(db.catalog(), base);
  const std::vector<AttrId> attrs = info.all_attrs.ToVector();

  Rng shapes_rng(4);
  for (int j = 0; j < 11; ++j) {
    Query q = base;
    const auto eqs = DrawExtraEqualities(info.classes, 1 + j % 3, shapes_rng);
    q.equalities.insert(q.equalities.end(), eqs.begin(), eqs.end());
    q.const_preds.push_back({attrs[static_cast<size_t>(3 * j) % attrs.size()],
                             CmpOp::kEq, kDomain / 2});
    if (j % 4 == 3) {
      for (size_t k = 0; k < attrs.size(); k += 2) q.projection.Add(attrs[k]);
    }
    double count = -1;
    bool in_order = false;
    EXPECT_NO_THROW({
      FdbResult res =
          engine.EvaluateOnFRep(input, eqs, q.const_preds, q.projection);
      res.rep.Validate();
      count = res.rep.CountTuples();
      // Projection leaves no hidden node: materialising needs no sort.
      in_order = !VisibleStreamOrder(res.rep.tree()).empty();
    }) << "statement " << j;
    EXPECT_TRUE(in_order) << "statement " << j;
    EXPECT_EQ(count, static_cast<double>(engine.ExecuteRdb(q).NumTuples()))
        << "statement " << j;
  }
}

TEST_F(EngineTest, VdbAgreesOnGrocery) {
  Query q1 = GroceryQ1(*db_);
  VdbResult vdb = engine_.ExecuteVdb(q1);
  RdbResult rdb = engine_.ExecuteRdb(q1);
  EXPECT_EQ(vdb.NumTuples(), rdb.NumTuples());
}

TEST_F(EngineTest, PrintedFactorisationMentionsGroceries) {
  FdbResult res = engine_.EvaluateFlat(GroceryQ2(*db_));
  PrintOptions popts;
  popts.catalog = &db_->catalog();
  popts.dict = &db_->dict();
  popts.unicode = false;
  std::string s = ToExpressionString(res.rep, popts);
  EXPECT_NE(s.find("Guney"), std::string::npos);
  EXPECT_NE(s.find("Antalya"), std::string::npos);
}

}  // namespace
}  // namespace fdb
