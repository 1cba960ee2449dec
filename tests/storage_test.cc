#include <gtest/gtest.h>

#include <sstream>

#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/query.h"
#include "storage/relation.h"

namespace fdb {
namespace {

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(Relation, BasicAccess) {
  Relation r = MakeRel({0, 1}, {{1, 2}, {3, 4}});
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(1, 0), 3);
  EXPECT_EQ(r.ColumnOf(1), 1u);
  EXPECT_TRUE(r.HasAttr(0));
  EXPECT_FALSE(r.HasAttr(5));
  EXPECT_THROW(r.ColumnOf(5), FdbError);
}

TEST(Relation, RejectsDuplicateSchema) {
  EXPECT_THROW(Relation({1, 1}), FdbError);
}

TEST(Relation, RejectsWrongArityTuple) {
  Relation r({0, 1});
  EXPECT_THROW(r.AddTuple({1}), FdbError);
}

TEST(Relation, SortLexAndDedup) {
  Relation r = MakeRel({0, 1}, {{2, 1}, {1, 2}, {2, 1}, {1, 1}});
  r.SortLex();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_EQ(r.At(0, 1), 1);
  EXPECT_EQ(r.At(2, 0), 2);
}

TEST(Relation, SortBySelectedColumnWithTieBreak) {
  Relation r = MakeRel({0, 1}, {{2, 9}, {1, 5}, {2, 3}});
  r.SortByColumns({1});
  EXPECT_EQ(r.At(0, 1), 3);
  EXPECT_EQ(r.At(1, 1), 5);
  EXPECT_EQ(r.At(2, 1), 9);
  EXPECT_EQ(r.sort_order()[0], 1u);
}

TEST(Relation, MarkSortedRecordsTheOrderAndSkipsEqualSorts) {
  // Sorted under (column 1, column 0), not under ascending columns.
  Relation r = MakeRel({0, 1}, {{5, 1}, {2, 3}, {9, 3}});
  const std::vector<Value> rows = r.data();
  r.MarkSorted({1, 0});
  EXPECT_EQ(r.sort_order(), (std::vector<size_t>{1, 0}));
  r.SortByColumns({1});  // the same total order: nothing moves
  EXPECT_EQ(r.data(), rows);
  EXPECT_EQ(r.sort_order(), (std::vector<size_t>{1, 0}));
  r.SortLex();  // another order: really sorts
  EXPECT_EQ(r.data(), (std::vector<Value>{2, 3, 5, 1, 9, 3}));
  EXPECT_EQ(r.sort_order(), (std::vector<size_t>{0, 1}));
  r.AddTuple({1, 1});  // any append forgets the order
  EXPECT_TRUE(r.sort_order().empty());
  r.SortLex();
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_THROW(r.MarkSorted({0}), FdbError);  // not a total order
}

#ifdef FDB_VALIDATE
TEST(Relation, MarkSortedRejectsUnsortedRowsUnderValidation) {
  Relation r = MakeRel({0}, {{2}, {1}});
  EXPECT_THROW(r.MarkSorted({0}), FdbError);
  Relation d = MakeRel({0}, {{1}, {1}});
  EXPECT_THROW(d.MarkSorted({0}), FdbError);  // duplicates break the claim
}
#endif

TEST(Relation, LowerBoundAndEqualRange) {
  // Note SortLex removes the duplicate {3}: rows become 1, 3, 5, 9.
  Relation r = MakeRel({0}, {{1}, {3}, {3}, {5}, {9}});
  r.SortLex();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.LowerBound(0, r.size(), 0, 3), 1u);
  EXPECT_EQ(r.LowerBound(0, r.size(), 0, 4), 2u);
  auto [b, e] = r.EqualRange(0, r.size(), 0, 3);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(e, 2u);
  auto [b2, e2] = r.EqualRange(0, r.size(), 0, 7);
  EXPECT_EQ(b2, e2);
}

TEST(Relation, EqualRangeWithDuplicateKeyColumn) {
  Relation r = MakeRel({0, 1}, {{3, 1}, {3, 2}, {3, 3}, {5, 1}});
  r.SortLex();
  auto [b, e] = r.EqualRange(0, r.size(), 0, 3);
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(e, 3u);
}

TEST(Relation, DistinctCount) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  EXPECT_EQ(r.DistinctCount(0), 2u);
  EXPECT_EQ(r.DistinctCount(1), 2u);
}

TEST(Relation, Filter) {
  Relation r = MakeRel({0}, {{1}, {2}, {3}, {4}});
  r.Filter([&](size_t row) { return r.At(row, 0) % 2 == 0; });
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(0, 0), 2);
  EXPECT_EQ(r.At(1, 0), 4);
}

TEST(Catalog, RegistersAndLooksUp) {
  Catalog c;
  AttrId a = c.AddAttribute("x");
  AttrId b = c.AddAttribute("y", /*is_string=*/true);
  RelId r = c.AddRelation("R", {a, b});
  EXPECT_EQ(c.FindAttribute("x"), static_cast<int>(a));
  EXPECT_EQ(c.FindAttribute("z"), -1);
  EXPECT_EQ(c.FindRelation("R"), static_cast<int>(r));
  EXPECT_TRUE(c.attr(b).is_string);
  EXPECT_EQ(c.RelAttrSet(r), AttrSet::Of({a, b}));
}

TEST(Catalog, RejectsDuplicatesAndOverflow) {
  Catalog c;
  c.AddAttribute("x");
  EXPECT_THROW(c.AddAttribute("x"), FdbError);
  EXPECT_THROW(c.AddRelation("R", {42}), FdbError);
  Catalog full;
  for (int i = 0; i < 64; ++i) full.AddAttribute("a" + std::to_string(i));
  EXPECT_THROW(full.AddAttribute("overflow"), FdbError);
}

TEST(Catalog, ClassName) {
  Catalog c;
  AttrId a = c.AddAttribute("item");
  AttrId b = c.AddAttribute("pitem");
  EXPECT_EQ(c.ClassName(AttrSet::Of({a, b})), "item=pitem");
}

TEST(Query, EqualityClasses) {
  AttrSet universe = AttrSet::FirstN(5);
  auto classes = EqualityClasses(universe, {{0, 1}, {1, 2}});
  // {0,1,2}, {3}, {4}.
  EXPECT_EQ(classes.size(), 3u);
  bool found = false;
  for (const auto& cls : classes) found |= cls == AttrSet::Of({0, 1, 2});
  EXPECT_TRUE(found);
}

TEST(Query, AnalyzeResolvesRelationsAndClasses) {
  Catalog c;
  AttrId a0 = c.AddAttribute("a0"), a1 = c.AddAttribute("a1");
  AttrId b0 = c.AddAttribute("b0"), b1 = c.AddAttribute("b1");
  RelId r0 = c.AddRelation("R", {a0, a1});
  RelId r1 = c.AddRelation("S", {b0, b1});
  Query q;
  q.rels = {r0, r1};
  q.equalities = {{a1, b0}};
  QueryInfo info = AnalyzeQuery(c, q);
  EXPECT_EQ(info.num_rels, 2);
  EXPECT_EQ(info.attr_rel[a0], 0);
  EXPECT_EQ(info.attr_rel[b1], 1);
  EXPECT_EQ(info.ClassOf(a1), AttrSet::Of({a1, b0}));
  EXPECT_EQ(info.RelsCovering(AttrSet::Of({a1, b0})), RelSet::Of({0, 1}));
  EXPECT_EQ(info.projection, info.all_attrs);
}

TEST(Query, AnalyzeRejectsMalformed) {
  Catalog c;
  AttrId a0 = c.AddAttribute("a0");
  AttrId x = c.AddAttribute("x");
  RelId r0 = c.AddRelation("R", {a0});
  c.AddRelation("S", {a0});  // shares a0 with R

  Query empty;
  EXPECT_THROW(AnalyzeQuery(c, empty), FdbError);

  Query shared;
  shared.rels = {r0, 1};
  EXPECT_THROW(AnalyzeQuery(c, shared), FdbError);  // a0 in two rels

  Query bad_eq;
  bad_eq.rels = {r0};
  bad_eq.equalities = {{a0, x}};  // x not in the query
  EXPECT_THROW(AnalyzeQuery(c, bad_eq), FdbError);

  Query bad_proj;
  bad_proj.rels = {r0};
  bad_proj.projection = AttrSet::Of({x});
  EXPECT_THROW(AnalyzeQuery(c, bad_proj), FdbError);
}

TEST(Cmp, EvalAllOps) {
  EXPECT_TRUE(EvalCmp(1, CmpOp::kEq, 1));
  EXPECT_TRUE(EvalCmp(1, CmpOp::kNe, 2));
  EXPECT_TRUE(EvalCmp(1, CmpOp::kLt, 2));
  EXPECT_TRUE(EvalCmp(2, CmpOp::kLe, 2));
  EXPECT_TRUE(EvalCmp(3, CmpOp::kGt, 2));
  EXPECT_TRUE(EvalCmp(2, CmpOp::kGe, 2));
  EXPECT_FALSE(EvalCmp(2, CmpOp::kLt, 2));
}

TEST(Csv, RoundTrip) {
  Catalog cat;
  Dictionary dict;
  std::istringstream in("oid,item:str\n1,Milk\n2,Cheese\n");
  Relation rel = ReadCsv(in, "Orders", ',', &cat, &dict);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(cat.FindRelation("Orders"), 0);
  EXPECT_TRUE(cat.attr(rel.schema()[1]).is_string);
  EXPECT_EQ(dict.Decode(rel.At(0, 1)), "Milk");

  std::ostringstream out;
  WriteCsv(out, rel, cat, dict, ',');
  EXPECT_EQ(out.str(), "oid,item:str\n1,Milk\n2,Cheese\n");
}

TEST(Csv, MalformedInputs) {
  Catalog cat;
  Dictionary dict;
  std::istringstream empty("");
  EXPECT_THROW(ReadCsv(empty, "R", ',', &cat, &dict), FdbError);

  std::istringstream bad_arity("a,b\n1\n");
  EXPECT_THROW(ReadCsv(bad_arity, "R2", ',', &cat, &dict), FdbError);

  Catalog cat2;
  std::istringstream bad_int("a\nxyz\n");
  EXPECT_THROW(ReadCsv(bad_int, "R3", ',', &cat2, &dict), FdbError);
}

TEST(Csv, SkipsBlankLines) {
  Catalog cat;
  Dictionary dict;
  std::istringstream in("a\n1\n\n2\n");
  Relation rel = ReadCsv(in, "R", ',', &cat, &dict);
  EXPECT_EQ(rel.size(), 2u);
}

}  // namespace
}  // namespace fdb
