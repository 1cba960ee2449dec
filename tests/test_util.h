// Shared fixtures: the grocery retailer database of Fig. 1 and small
// helpers used across the test suite.
#ifndef FDB_TESTS_TEST_UTIL_H_
#define FDB_TESTS_TEST_UTIL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "core/enumerate.h"

namespace fdb {
namespace testing_util {

// The example database of Figure 1. Attribute names are global, so the
// shared column names of the paper (item, location, supplier) are prefixed
// per relation; queries equate them explicitly, exactly like the paper's
// equivalence classes {item, item'} etc.
//
//   Orders(oid, o_item)         Store(s_location, s_item)
//   Disp(dispatcher, d_location)
//   Produce(supplier, p_item)   Serve(sv_supplier, sv_location)
inline std::unique_ptr<Database> MakeGroceryDb() {
  auto db = std::make_unique<Database>();
  RelId orders = db->CreateRelation("Orders", {"oid", "o_item:str"});
  RelId store = db->CreateRelation("Store", {"s_location:str", "s_item:str"});
  RelId disp = db->CreateRelation("Disp", {"dispatcher:str", "d_location:str"});
  RelId produce = db->CreateRelation("Produce", {"supplier:str", "p_item:str"});
  RelId serve =
      db->CreateRelation("Serve", {"sv_supplier:str", "sv_location:str"});

  auto ins = [&db](RelId r, std::vector<Cell> row) { db->Insert(r, row); };
  ins(orders, {int64_t{1}, "Milk"});
  ins(orders, {int64_t{1}, "Cheese"});
  ins(orders, {int64_t{2}, "Melon"});
  ins(orders, {int64_t{3}, "Cheese"});
  ins(orders, {int64_t{3}, "Melon"});

  ins(store, {"Istanbul", "Milk"});
  ins(store, {"Istanbul", "Cheese"});
  ins(store, {"Istanbul", "Melon"});
  ins(store, {"Izmir", "Milk"});
  ins(store, {"Antalya", "Milk"});
  ins(store, {"Antalya", "Cheese"});

  ins(disp, {"Adnan", "Istanbul"});
  ins(disp, {"Adnan", "Izmir"});
  ins(disp, {"Yasemin", "Istanbul"});
  ins(disp, {"Volkan", "Antalya"});

  ins(produce, {"Guney", "Milk"});
  ins(produce, {"Guney", "Cheese"});
  ins(produce, {"Dikici", "Milk"});
  ins(produce, {"Byzantium", "Melon"});

  ins(serve, {"Guney", "Antalya"});
  ins(serve, {"Dikici", "Istanbul"});
  ins(serve, {"Dikici", "Izmir"});
  ins(serve, {"Dikici", "Antalya"});
  ins(serve, {"Byzantium", "Istanbul"});
  return db;
}

// Q1 = Orders |x|_item Store |x|_location Disp (Example 1).
inline Query GroceryQ1(const Database& db) {
  Query q;
  q.rels = {static_cast<RelId>(db.catalog().FindRelation("Orders")),
            static_cast<RelId>(db.catalog().FindRelation("Store")),
            static_cast<RelId>(db.catalog().FindRelation("Disp"))};
  q.equalities = {{db.Attr("o_item"), db.Attr("s_item")},
                  {db.Attr("s_location"), db.Attr("d_location")}};
  return q;
}

// Q2 = Produce |x|_supplier Serve (Example 1).
inline Query GroceryQ2(const Database& db) {
  Query q;
  q.rels = {static_cast<RelId>(db.catalog().FindRelation("Produce")),
            static_cast<RelId>(db.catalog().FindRelation("Serve"))};
  q.equalities = {{db.Attr("supplier"), db.Attr("sv_supplier")}};
  return q;
}

// A sorted copy of `r` under ascending-column order. The copy does not
// inherit r's recorded sort order, so it is really sorted and deduplicated:
// a copy smaller than `r` means `r` held duplicate rows.
inline Relation SortedCopy(const Relation& r) {
  if (r.arity() == 0) return r;  // at most one (empty) tuple
  Relation out(r.schema());
  out.AppendRows(r.data());
  out.SortLex();
  return out;
}

// True iff the rows of `r` are strictly increasing under its recorded
// sort_order() (trivially true when it records none): sorted and
// duplicate-free, as the order claims.
inline bool RowsFollowSortOrder(const Relation& r) {
  const std::vector<size_t>& order = r.sort_order();
  if (order.empty()) return true;
  for (size_t i = 1; i < r.size(); ++i) {
    std::span<const Value> prev = r.Row(i - 1), cur = r.Row(i);
    size_t c = 0;
    while (c < order.size() && prev[order[c]] == cur[order[c]]) ++c;
    if (c == order.size() || prev[order[c]] > cur[order[c]]) return false;
  }
  return true;
}

// True iff `a` and `b` hold the same set of rows over the same schema,
// neither with duplicate rows, whatever order each is in.
inline bool SameRows(const Relation& a, const Relation& b) {
  const Relation sa = SortedCopy(a), sb = SortedCopy(b);
  return sa.size() == a.size() && sb.size() == b.size() && sa == sb;
}

// Checks that an f-representation and a flat relation represent the same
// relation. The materialised side must be duplicate-free and follow its
// recorded sort order; it is compared through a sorted copy, which fails
// the check if sorting dropped a row. The schemas must cover the same
// attribute sets.
inline bool SameRelation(const FRep& rep, const Relation& flat) {
  const Relation mat = MaterializeVisible(rep);
  if (!RowsFollowSortOrder(mat)) return false;
  const Relation lhs = SortedCopy(mat);
  if (lhs.size() != mat.size()) return false;
  Relation rhs = flat;
  if (lhs.attr_set() != rhs.attr_set()) return false;
  // Reorder rhs columns to match lhs schema.
  std::vector<size_t> cols;
  for (AttrId a : lhs.schema()) cols.push_back(rhs.ColumnOf(a));
  Relation rhs2(lhs.schema());
  std::vector<Value> tuple(cols.size());
  for (size_t r = 0; r < rhs.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) tuple[c] = rhs.At(r, cols[c]);
    rhs2.AddTuple(tuple);
  }
  rhs2.SortLex();
  return lhs == rhs2;
}

}  // namespace testing_util
}  // namespace fdb

#endif  // FDB_TESTS_TEST_UTIL_H_
