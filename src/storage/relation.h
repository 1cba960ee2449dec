// In-memory relations.
//
// A relation is a row-major array of 64-bit values plus a schema of global
// attribute ids. The engines (FDB grounding, RDB sort-merge) work on
// relations sorted lexicographically under a chosen column order, mirroring
// the paper's setup ("the relations are given sorted"). A relation records
// the order its rows are in (sort_order()): materialised query results
// arrive in f-tree order and say so, and a consumer that needs another
// order sorts, paying nothing when the order is already the one it asks
// for.
#ifndef FDB_STORAGE_RELATION_H_
#define FDB_STORAGE_RELATION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/attrset.h"
#include "common/types.h"

namespace fdb {

/// A flat relation instance over a fixed schema.
class Relation {
 public:
  /// `schema` lists the global attribute ids of the columns, left to right.
  /// Attribute ids must be distinct.
  explicit Relation(std::vector<AttrId> schema);

  size_t arity() const { return schema_.size(); }
  size_t size() const { return arity() == 0 ? nullary_count_ : data_.size() / arity(); }
  bool empty() const { return size() == 0; }

  const std::vector<AttrId>& schema() const { return schema_; }
  AttrSet attr_set() const { return AttrSet::FromVector(schema_); }

  /// Column position of a global attribute id; throws if absent.
  size_t ColumnOf(AttrId attr) const;
  bool HasAttr(AttrId attr) const;

  void Reserve(size_t rows) { data_.reserve(rows * arity()); }

  /// Appends one tuple; `tuple.size()` must equal arity().
  void AddTuple(std::span<const Value> tuple);

  /// Bulk-appends `values.size() / arity()` rows stored row-major (the
  /// merge step of parallel enumeration sinks). `values.size()` must be a
  /// multiple of arity(), which must be positive.
  void AppendRows(std::span<const Value> values);

  /// AppendRows that takes ownership: when the relation is still empty the
  /// buffer is moved in wholesale (no copy — the fast path for a
  /// single-chunk kernel materialisation), otherwise it degrades to a
  /// plain append. Same size contract as AppendRows.
  void AdoptRows(std::vector<Value>&& values);
  void AddTuple(std::initializer_list<Value> tuple) {
    AddTuple(std::span<const Value>(tuple.begin(), tuple.size()));
  }

  Value At(size_t row, size_t col) const { return data_[row * arity() + col]; }
  std::span<const Value> Row(size_t row) const {
    return {data_.data() + row * arity(), arity()};
  }

  /// Sorts rows lexicographically by the given column positions (remaining
  /// columns are appended as tie-breakers so the order is total) and removes
  /// exact duplicate rows (relations are sets). Returns at once when that
  /// total order equals sort_order(): the rows are already in it.
  void SortByColumns(const std::vector<size_t>& cols);

  /// Sorts by columns 0,1,...,arity-1.
  void SortLex();

  /// Records that the rows are sorted under the total column order `order`
  /// (a permutation of all columns) and duplicate-free, without sorting:
  /// for producers that emit rows in a known order, such as the
  /// materialisation sinks (core/enumerate.h). Under FDB_VALIDATE the claim
  /// is checked row by row.
  void MarkSorted(std::vector<size_t> order);

  /// The total column order the rows are sorted under, duplicate-free; set
  /// by SortByColumns and MarkSorted, cleared by every append (empty:
  /// unknown order).
  const std::vector<size_t>& sort_order() const { return sort_order_; }

  /// First row index in [lo, hi) whose value in column `col` is >= v.
  /// Requires rows [lo, hi) to be sorted on `col` (true within an equal-
  /// prefix range of the sort order).
  size_t LowerBound(size_t lo, size_t hi, size_t col, Value v) const;

  /// Sub-range of [lo, hi) whose `col` value equals v (same requirement).
  std::pair<size_t, size_t> EqualRange(size_t lo, size_t hi, size_t col,
                                       Value v) const;

  /// Number of distinct values in a column (scans; used by the estimator).
  size_t DistinctCount(size_t col) const;

  /// Keeps only rows satisfying pred(row_index).
  template <typename Pred>
  void Filter(Pred pred) {
    size_t w = 0;
    const size_t n = size(), k = arity();
    for (size_t r = 0; r < n; ++r) {
      if (pred(r)) {
        if (w != r) {
          for (size_t c = 0; c < k; ++c) data_[w * k + c] = data_[r * k + c];
        }
        ++w;
      }
    }
    data_.resize(w * k);
  }

  /// Raw data access for tight loops.
  const std::vector<Value>& data() const { return data_; }

  bool operator==(const Relation& o) const {
    return schema_ == o.schema_ && data_ == o.data_ &&
           nullary_count_ == o.nullary_count_;
  }

 private:
  std::vector<AttrId> schema_;
  std::vector<Value> data_;
  std::vector<size_t> sort_order_;
  size_t nullary_count_ = 0;  // tuple count for arity-0 relations (0 or 1)
};

}  // namespace fdb

#endif  // FDB_STORAGE_RELATION_H_
