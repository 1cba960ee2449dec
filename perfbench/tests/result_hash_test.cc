// Tests of the order-independent answer digests (src/result_hash.h).
#include "result_hash.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

fdb::Relation Rel(std::vector<fdb::AttrId> schema,
                  std::vector<std::vector<fdb::Value>> rows) {
  fdb::Relation r(std::move(schema));
  for (const auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(RowSetDigest, IgnoresRowOrder) {
  EXPECT_EQ(DigestRelation(Rel({0, 1}, {{1, 2}, {3, 4}, {5, 6}})),
            DigestRelation(Rel({0, 1}, {{5, 6}, {1, 2}, {3, 4}})));
}

TEST(RowSetDigest, IgnoresColumnOrder) {
  EXPECT_EQ(DigestRelation(Rel({0, 1}, {{1, 2}, {3, 4}})),
            DigestRelation(Rel({1, 0}, {{2, 1}, {4, 3}})));
}

TEST(RowSetDigest, DetectsChangedMissingAndExtraRows) {
  const RowSetDigest d = DigestRelation(Rel({0, 1}, {{1, 2}, {3, 4}}));
  EXPECT_NE(d, DigestRelation(Rel({0, 1}, {{1, 2}, {3, 5}})));
  EXPECT_NE(d, DigestRelation(Rel({0, 1}, {{1, 2}})));
  EXPECT_NE(d, DigestRelation(Rel({0, 1}, {{1, 2}, {3, 4}, {3, 4}})));
  // Values moved between rows: same multiset of values, different rows.
  EXPECT_NE(d, DigestRelation(Rel({0, 1}, {{1, 4}, {3, 2}})));
  EXPECT_EQ(d.rows, 2u);
}

TEST(RowSetDigest, GroupedTablesCompareAsSets) {
  fdb::GroupedTable a, b;
  a.group_schema = b.group_schema = {3};
  a.specs = b.specs = {fdb::AggSpec{fdb::AggFn::kCount, 0}};
  a.AddRow(std::vector<fdb::Value>{1}, std::vector<double>{10});
  a.AddRow(std::vector<fdb::Value>{2}, std::vector<double>{20});
  b.AddRow(std::vector<fdb::Value>{2}, std::vector<double>{20});
  b.AddRow(std::vector<fdb::Value>{1}, std::vector<double>{10});
  EXPECT_EQ(DigestGroupedTable(a), DigestGroupedTable(b));
  b.aggs[0] = 20.5;
  EXPECT_NE(DigestGroupedTable(a), DigestGroupedTable(b));
}

}  // namespace
}  // namespace perfbench
