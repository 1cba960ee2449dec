// Order-independent digests of query answers.
//
// Answers are compared as sets: a row count plus the wrapping sum of one
// mixed hash per row. Reordering rows leaves the digest unchanged, so a
// change that emits rows in another order (for example f-tree order instead
// of a global sort) still checks as correct; a missing, extra or altered row
// does not.
#ifndef PERFBENCH_RESULT_HASH_H_
#define PERFBENCH_RESULT_HASH_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "storage/query.h"
#include "storage/relation.h"

namespace perfbench {

/// splitmix64 finaliser: a bijective 64-bit mixer.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct RowSetDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  /// Adds one row; `words` are the row's values in a fixed column order.
  void Add(std::span<const uint64_t> words) {
    uint64_t h = 0x2545f4914f6cdd1dull;
    for (uint64_t w : words) h = Mix(h ^ w);
    ++rows;
    sum += Mix(h);
  }

  bool operator==(const RowSetDigest&) const = default;
};

/// Digest of a relation with its columns taken in increasing attribute-id
/// order, so relations over the same attributes compare regardless of
/// column order.
inline RowSetDigest DigestRelation(const fdb::Relation& rel) {
  std::vector<size_t> cols(rel.arity());
  std::iota(cols.begin(), cols.end(), size_t{0});
  std::sort(cols.begin(), cols.end(), [&](size_t a, size_t b) {
    return rel.schema()[a] < rel.schema()[b];
  });
  RowSetDigest d;
  std::vector<uint64_t> words(cols.size());
  for (size_t r = 0; r < rel.size(); ++r) {
    for (size_t i = 0; i < cols.size(); ++i) {
      words[i] = static_cast<uint64_t>(rel.At(r, cols[i]));
    }
    d.Add(words);
  }
  return d;
}

/// Digest of a grouped table: each row is its group key followed by the
/// bit patterns of its aggregate values.
inline RowSetDigest DigestGroupedTable(const fdb::GroupedTable& t) {
  RowSetDigest d;
  const size_t k = t.group_schema.size(), a = t.specs.size();
  std::vector<uint64_t> words(k + a);
  for (size_t r = 0; r < t.num_rows; ++r) {
    for (size_t c = 0; c < k; ++c) {
      words[c] = static_cast<uint64_t>(t.KeyAt(r, c));
    }
    for (size_t c = 0; c < a; ++c) {
      const double v = t.AggAt(r, c);
      std::memcpy(&words[k + c], &v, sizeof v);
    }
    d.Add(words);
  }
  return d;
}

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_HASH_H_
