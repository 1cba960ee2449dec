// Tests for common/trace.h (span tree construction, RAII scopes, render
// format) and the engine integration: ExecuteTraced / EXPLAIN ANALYZE span
// structure. Durations are asserted only structurally (children sum to at
// most the parent; totals are positive) — never against wall-clock
// expectations, so the suite cannot flake on slow machines.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "common/trace.h"
#include "common/types.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "sql/parser.h"

namespace fdb {
namespace {

TEST(QueryTrace, OpenCloseBuildsTree) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  int a = t.OpenSpan("parse");
  t.CloseSpan(a, 0.25);
  int b = t.OpenSpan("ground");
  int c = t.OpenSpan("kernel-compile");
  t.CloseSpan(c, 0.0625);
  t.CloseSpan(b, 0.5);
  t.CloseSpan(root, 1.0);

  const std::vector<QueryTrace::Span>& spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[root].name, "query");
  EXPECT_EQ(spans[root].parent, -1);
  EXPECT_EQ(spans[root].depth, 0);
  EXPECT_EQ(spans[a].parent, root);
  EXPECT_EQ(spans[a].depth, 1);
  EXPECT_EQ(spans[b].parent, root);
  EXPECT_EQ(spans[c].parent, b);
  EXPECT_EQ(spans[c].depth, 2);
  EXPECT_EQ(spans[root].seconds, 1.0);
  EXPECT_EQ(spans[c].seconds, 0.0625);
  EXPECT_EQ(t.TotalSeconds(), 1.0);
}

TEST(QueryTrace, CloseMustBeLifo) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  t.OpenSpan("inner");
  EXPECT_THROW(t.CloseSpan(root, 1.0), FdbError);
}

TEST(QueryTrace, RecordSpanAddsClosedLeaf) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  t.RecordSpan("render", 0.125);
  t.CloseSpan(root, 1.0);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].name, "render");
  EXPECT_EQ(t.spans()[1].parent, root);
  EXPECT_EQ(t.spans()[1].seconds, 0.125);
}

TEST(QueryTrace, RowsAndBytesPayloads) {
  QueryTrace t;
  int s = t.OpenSpan("enumerate");
  t.SetRows(s, 42);
  t.SetBytes(s, 1024);
  t.CloseSpan(s, 0.5);
  EXPECT_TRUE(t.spans()[s].has_rows);
  EXPECT_EQ(t.spans()[s].rows, 42u);
  EXPECT_TRUE(t.spans()[s].has_bytes);
  EXPECT_EQ(t.spans()[s].bytes, 1024u);
}

TEST(QueryTrace, ScopeIsRaii) {
  QueryTrace t;
  {
    QueryTrace::Scope root(&t, "query");
    {
      QueryTrace::Scope child(&t, "ground");
      child.SetBytes(99);
    }
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].name, "query");
  EXPECT_EQ(t.spans()[1].name, "ground");
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_TRUE(t.spans()[1].has_bytes);
  EXPECT_GE(t.spans()[0].seconds, 0.0);
  // The parent's wall time covers the child's.
  EXPECT_GE(t.spans()[0].seconds, t.spans()[1].seconds);
}

TEST(QueryTrace, NullTraceScopeIsANoOp) {
  QueryTrace::Scope scope(nullptr, "query");
  scope.SetRows(1);
  scope.SetBytes(2);
  // Nothing to assert beyond "does not crash": the scope never touches a
  // trace and never reads the clock.
}

TEST(QueryTrace, ChildrenSumAtMostParent) {
  QueryTrace t;
  {
    QueryTrace::Scope root(&t, "query");
    for (int i = 0; i < 3; ++i) {
      QueryTrace::Scope child(&t, "phase");
      // Do a little real work so child durations are non-trivial.
      volatile uint64_t x = 0;
      for (int j = 0; j < 10000; ++j) x = x + static_cast<uint64_t>(j);
    }
  }
  const auto& spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  double child_sum = 0.0;
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, 0);
    child_sum += spans[i].seconds;
  }
  EXPECT_LE(child_sum, spans[0].seconds);
}

// Masks "time=<value>" fields so render output can be compared exactly
// without depending on wall times.
std::string MaskTimes(const std::string& rendered) {
  std::string out;
  std::istringstream is(rendered);
  std::string line;
  while (std::getline(is, line)) {
    size_t pos;
    while ((pos = line.find("time=")) != std::string::npos) {
      size_t end = line.find_first_of(" \n", pos);
      if (end == std::string::npos) end = line.size();
      line.replace(pos, end - pos, "T");
    }
    // The total line carries a time too.
    if (line.rfind("-- total", 0) == 0) line = "-- total";
    out += line;
    out += '\n';
  }
  return out;
}

TEST(QueryTrace, RenderFormat) {
  QueryTrace t;
  int root = t.OpenSpan("query");
  int g = t.OpenSpan("ground");
  t.SetBytes(g, 2048);
  t.CloseSpan(g, 0.002);
  int e = t.OpenSpan("enumerate");
  t.SetRows(e, 7);
  t.CloseSpan(e, 0.001);
  t.CloseSpan(root, 0.004);

  EXPECT_EQ(MaskTimes(t.Render()),
            "EXPLAIN ANALYZE\n"
            "query  T\n"
            "  ground  T bytes=2048\n"
            "  enumerate  T rows=7\n"
            "-- total\n");
}

TEST(QueryTrace, RenderRowsIn) {
  QueryTrace t;
  int s = t.OpenSpan("sort");
  t.SetRowsIn(s, 16);
  t.SetRows(s, 1);
  t.CloseSpan(s, 0.001);
  EXPECT_TRUE(t.spans()[s].has_rows_in);
  EXPECT_EQ(t.spans()[s].rows_in, 16u);
  EXPECT_EQ(MaskTimes(t.Render()),
            "EXPLAIN ANALYZE\n"
            "sort  T rows_in=16 rows=1\n"
            "-- total\n");
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

void LoadDemo(Database* db) {
  RelId orders = db->CreateRelation("orders", {"oid", "item:str"});
  RelId stock = db->CreateRelation("stock", {"sitem:str", "warehouse:str"});
  db->Insert(orders, {int64_t{1}, "Milk"});
  db->Insert(orders, {int64_t{1}, "Cheese"});
  db->Insert(orders, {int64_t{2}, "Melon"});
  db->Insert(stock, {"Milk", "North"});
  db->Insert(stock, {"Milk", "South"});
  db->Insert(stock, {"Cheese", "South"});
  db->Insert(stock, {"Melon", "North"});
}

// name -> index of its first occurrence.
std::map<std::string, int> IndexByName(const QueryTrace& t) {
  std::map<std::string, int> by_name;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    by_name.emplace(t.spans()[i].name, static_cast<int>(i));
  }
  return by_name;
}

TEST(EngineTrace, ExecuteTracedSpjSpanStructure) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  QueryTrace trace;
  {
    QueryTrace::Scope root(&trace, "query");
    Query q = engine.Parse("SELECT * FROM orders, stock WHERE item = sitem");
    engine.ExecuteTraced(q, &trace);
  }

  std::map<std::string, int> spans = IndexByName(trace);
  ASSERT_TRUE(spans.count("query"));
  ASSERT_TRUE(spans.count("f-tree-search"));
  ASSERT_TRUE(spans.count("ground"));
  ASSERT_TRUE(spans.count("morsel-plan"));
  ASSERT_TRUE(spans.count("enumerate"));
  const auto& all = trace.spans();
  int root = spans["query"];
  EXPECT_EQ(all[root].parent, -1);
  EXPECT_EQ(all[spans["ground"]].parent, root);
  EXPECT_TRUE(all[spans["ground"]].has_bytes);
  EXPECT_GT(all[spans["ground"]].bytes, 0u);
  EXPECT_TRUE(all[spans["enumerate"]].has_rows);
  EXPECT_EQ(all[spans["enumerate"]].rows, 4u);  // the demo join has 4 rows

  // Direct children of the root account for at most its wall time.
  double child_sum = 0.0;
  for (const auto& s : all) {
    if (s.parent == root) child_sum += s.seconds;
  }
  EXPECT_LE(child_sum, all[root].seconds);
  EXPECT_GT(trace.TotalSeconds(), 0.0);
}

TEST(EngineTrace, ProjectedStarMaterialisesWithoutSort) {
  // Hiding the join attribute of the star leaves its node without a
  // visible attribute; projection removes it, so the enumerated stream is
  // already in order and the sink runs no sort.
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  QueryTrace trace;
  {
    QueryTrace::Scope root(&trace, "query");
    Query q = engine.Parse(
        "SELECT oid, warehouse FROM orders, stock WHERE item = sitem");
    engine.ExecuteTraced(q, &trace);
  }
  std::map<std::string, int> spans = IndexByName(trace);
  ASSERT_TRUE(spans.count("project"));
  ASSERT_TRUE(spans.count("enumerate"));
  // Four join rows, but (1, South) comes from both Milk and Cheese.
  EXPECT_EQ(trace.spans()[spans["enumerate"]].rows, 3u);
  EXPECT_FALSE(spans.count("sort"));
}

TEST(EngineTrace, DeferredProjectionMaterialisesWithSort) {
  // A hidden root above a visible child (deferred projection, which the
  // engine itself never leaves behind): both values of the hidden node
  // lead to B = 10, so the stream repeats a row and the sink must sort.
  Relation r({0, 1});
  for (const auto& row : {std::vector<Value>{1, 10}, {2, 10}, {2, 20}}) {
    r.AddTuple(row);
  }
  r.SortLex();
  FTree t;
  const int hidden = t.NewNode(AttrSet::Of({0}), {}, RelSet::Of({0}),
                               RelSet::Of({0}));
  const int shown = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}),
                              RelSet::Of({0}), RelSet::Of({0}));
  t.AttachRoot(hidden);
  t.AttachChild(hidden, shown);
  const FRep rep = GroundQuery(t, {&r});
  const EnumKernel kernel = EnumKernel::Compile(rep.tree(), true);
  const EnumKernel* const none = nullptr;
  for (const EnumKernel* k : {&kernel, none}) {
    QueryTrace trace;
    const Relation out = MaterializeVisible(rep, EnumerateOptions{}, k, &trace);
    EXPECT_EQ(out.size(), 2u);
    std::map<std::string, int> spans = IndexByName(trace);
    ASSERT_TRUE(spans.count("sort"));
    const QueryTrace::Span& sort = trace.spans()[spans["sort"]];
    EXPECT_EQ(sort.parent, spans["enumerate"]);
    EXPECT_TRUE(sort.has_rows_in);
    EXPECT_EQ(sort.rows_in, 3u);
    EXPECT_EQ(sort.rows, 2u);
  }
}

TEST(EngineTrace, ExecuteTracedAggregateSpanStructure) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  QueryTrace trace;
  {
    QueryTrace::Scope root(&trace, "query");
    Query q = engine.Parse(
        "SELECT warehouse, COUNT(*) FROM orders, stock "
        "WHERE item = sitem GROUP BY warehouse");
    engine.ExecuteTraced(q, &trace);
  }
  std::map<std::string, int> spans = IndexByName(trace);
  ASSERT_TRUE(spans.count("restructure-aggregate"));
  ASSERT_TRUE(spans.count("materialize-groups"));
  EXPECT_TRUE(trace.spans()[spans["materialize-groups"]].has_rows);
  EXPECT_EQ(trace.spans()[spans["materialize-groups"]].rows, 2u);
  // No enumeration spans: aggregate output is a grouped table.
  EXPECT_FALSE(spans.count("enumerate"));
}

TEST(EngineTrace, PretreeSkipsSearchSpan) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  Query q = engine.Parse("SELECT * FROM orders, stock WHERE item = sitem");
  FTreeSearchResult pre = engine.OptimizeFlat(q);
  QueryTrace trace;
  engine.EvaluateFlat(q, &pre, &trace);
  std::map<std::string, int> spans = IndexByName(trace);
  EXPECT_FALSE(spans.count("f-tree-search"));
  EXPECT_TRUE(spans.count("ground"));
}

TEST(EngineTrace, ExplainAnalyzeExecute) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  FdbResult res = engine.Execute(
      "EXPLAIN ANALYZE SELECT * FROM orders, stock WHERE item = sitem");
  ASSERT_TRUE(res.explain.has_value());
  const std::string& body = *res.explain;
  EXPECT_EQ(body.rfind("EXPLAIN ANALYZE\n", 0), 0u);
  EXPECT_NE(body.find("query"), std::string::npos);
  EXPECT_NE(body.find("parse"), std::string::npos);
  EXPECT_NE(body.find("f-tree-search"), std::string::npos);
  EXPECT_NE(body.find("ground"), std::string::npos);
  EXPECT_NE(body.find("enumerate"), std::string::npos);
  EXPECT_NE(body.find("-- total"), std::string::npos);
  // The factorised result still rides along.
  EXPECT_GT(res.FlatTuples(), 0.0);
}

TEST(EngineTrace, PlainExecuteHasNoExplain) {
  Database db;
  LoadDemo(&db);
  Engine engine(&db);
  FdbResult res =
      engine.Execute("SELECT * FROM orders, stock WHERE item = sitem");
  EXPECT_FALSE(res.explain.has_value());
}

TEST(SqlParse, IsExplainAnalyzeTextScan) {
  EXPECT_TRUE(IsExplainAnalyze("EXPLAIN ANALYZE SELECT 1"));
  EXPECT_TRUE(IsExplainAnalyze("  explain   Analyze select *"));
  EXPECT_TRUE(IsExplainAnalyze("\texplain analyze"));
  EXPECT_FALSE(IsExplainAnalyze("SELECT * FROM t"));
  EXPECT_FALSE(IsExplainAnalyze("explainanalyze select"));
  EXPECT_FALSE(IsExplainAnalyze("explain select"));
  EXPECT_FALSE(IsExplainAnalyze("explained analyze"));
  EXPECT_FALSE(IsExplainAnalyze(""));
}

}  // namespace
}  // namespace fdb
