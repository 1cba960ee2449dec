#include "storage/relation.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_set>

namespace fdb {

namespace {

// Sort + dedup for a fixed arity K: each row is materialised as a
// contiguous key with its columns permuted into the requested compare
// order, so std::sort touches sequential memory instead of chasing a row
// permutation (two random reads per compare) — several times faster on
// multi-million-row results. Dedup on the permuted keys is exact because
// the order is a permutation of all K columns.
template <size_t K>
void SortRowsFixed(std::vector<Value>& data, const std::vector<size_t>& order) {
  const size_t n = data.size() / K;
  std::vector<std::array<Value, K>> keys(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < K; ++j) keys[r][j] = data[r * K + order[j]];
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  data.resize(keys.size() * K);
  for (size_t r = 0; r < keys.size(); ++r) {
    for (size_t j = 0; j < K; ++j) data[r * K + order[j]] = keys[r][j];
  }
}

}  // namespace

Relation::Relation(std::vector<AttrId> schema) : schema_(std::move(schema)) {
  AttrSet seen;
  for (AttrId a : schema_) {
    FDB_CHECK_MSG(!seen.Contains(a), "duplicate attribute in relation schema");
    seen.Add(a);
  }
}

size_t Relation::ColumnOf(AttrId attr) const {
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (schema_[c] == attr) return c;
  }
  throw FdbError("attribute not in relation schema");
}

bool Relation::HasAttr(AttrId attr) const {
  return std::find(schema_.begin(), schema_.end(), attr) != schema_.end();
}

void Relation::AddTuple(std::span<const Value> tuple) {
  FDB_CHECK(tuple.size() == arity());
  if (arity() == 0) {
    nullary_count_ = 1;  // the nullary relation has at most one tuple
    return;
  }
  data_.insert(data_.end(), tuple.begin(), tuple.end());
  sort_order_.clear();
}

void Relation::AppendRows(std::span<const Value> values) {
  FDB_CHECK_MSG(arity() > 0, "AppendRows on a nullary relation");
  FDB_CHECK_MSG(values.size() % arity() == 0,
                "AppendRows size must be a multiple of the arity");
  data_.insert(data_.end(), values.begin(), values.end());
  sort_order_.clear();
}

void Relation::AdoptRows(std::vector<Value>&& values) {
  FDB_CHECK_MSG(arity() > 0, "AdoptRows on a nullary relation");
  FDB_CHECK_MSG(values.size() % arity() == 0,
                "AdoptRows size must be a multiple of the arity");
  if (data_.empty()) {
    data_ = std::move(values);
  } else {
    data_.insert(data_.end(), values.begin(), values.end());
  }
  sort_order_.clear();
}

void Relation::SortByColumns(const std::vector<size_t>& cols) {
  const size_t k = arity();
  if (k == 0) return;
  // Total column order: requested columns first, the rest as tie-breakers.
  std::vector<size_t> order = cols;
  std::vector<bool> used(k, false);
  for (size_t c : order) {
    FDB_CHECK(c < k);
    used[c] = true;
  }
  for (size_t c = 0; c < k; ++c) {
    if (!used[c]) order.push_back(c);
  }
  if (order == sort_order_) return;  // already sorted and duplicate-free

  // Narrow arities (every enumerated result in practice) take the
  // cache-friendly fixed-key sort; wider rows fall back to the generic
  // permutation sort below.
  switch (k) {
    case 1: SortRowsFixed<1>(data_, order); sort_order_ = order; return;
    case 2: SortRowsFixed<2>(data_, order); sort_order_ = order; return;
    case 3: SortRowsFixed<3>(data_, order); sort_order_ = order; return;
    case 4: SortRowsFixed<4>(data_, order); sort_order_ = order; return;
    default: break;
  }

  const size_t n = size();
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](size_t x, size_t y) {
    for (size_t c : order) {
      Value vx = data_[x * k + c], vy = data_[y * k + c];
      if (vx != vy) return vx < vy;
    }
    return false;
  });

  std::vector<Value> out;
  out.reserve(data_.size());
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t r = perm[i];
    if (kept > 0) {
      // Skip duplicates (relations are sets).
      const Value* prev = out.data() + (kept - 1) * k;
      const Value* cur = data_.data() + r * k;
      if (std::equal(prev, prev + k, cur)) continue;
    }
    out.insert(out.end(), data_.begin() + static_cast<ptrdiff_t>(r * k),
               data_.begin() + static_cast<ptrdiff_t>((r + 1) * k));
    ++kept;
  }
  data_ = std::move(out);
  sort_order_ = order;
}

void Relation::MarkSorted(std::vector<size_t> order) {
  const size_t k = arity();
  FDB_CHECK_MSG(order.size() == k, "MarkSorted needs a total column order");
#ifdef FDB_VALIDATE
  std::vector<bool> used(k, false);
  for (size_t c : order) {
    FDB_CHECK_MSG(c < k && !used[c], "MarkSorted order is not a permutation");
    used[c] = true;
  }
  for (size_t r = 1; r < size(); ++r) {
    const Value* prev = data_.data() + (r - 1) * k;
    const Value* cur = data_.data() + r * k;
    bool less = false;
    for (size_t c : order) {
      if (prev[c] != cur[c]) {
        less = prev[c] < cur[c];
        break;
      }
    }
    FDB_CHECK_MSG(less, "MarkSorted rows are not strictly increasing");
  }
#endif
  sort_order_ = std::move(order);
}

void Relation::SortLex() {
  std::vector<size_t> cols(arity());
  std::iota(cols.begin(), cols.end(), 0);
  SortByColumns(cols);
}

size_t Relation::LowerBound(size_t lo, size_t hi, size_t col, Value v) const {
  const size_t k = arity();
  size_t count = hi - lo;
  while (count > 0) {
    size_t step = count / 2;
    size_t mid = lo + step;
    if (data_[mid * k + col] < v) {
      lo = mid + 1;
      count -= step + 1;
    } else {
      count = step;
    }
  }
  return lo;
}

std::pair<size_t, size_t> Relation::EqualRange(size_t lo, size_t hi,
                                               size_t col, Value v) const {
  size_t b = LowerBound(lo, hi, col, v);
  size_t e = LowerBound(b, hi, col, v + 1);
  return {b, e};
}

size_t Relation::DistinctCount(size_t col) const {
  std::unordered_set<Value> seen;
  const size_t n = size(), k = arity();
  for (size_t r = 0; r < n; ++r) seen.insert(data_[r * k + col]);
  return seen.size();
}

}  // namespace fdb
