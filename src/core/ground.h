// Grounding: computing the f-representation of a join query directly from
// flat relations, over a chosen f-tree (§2; the O(|Q|·|D|^{s(T)}) algorithm
// of [19] realised as a multi-way sorted intersection per f-tree node).
//
// Each relation's attribute classes lie on a single root-to-leaf path of
// the f-tree (the path constraint), so sorting the relation by its classes
// in ancestor-first order makes the tuples matching any partial context a
// contiguous range. Grounding then walks the f-tree: at each node it
// intersects (leapfrog-style) the distinct values of the covering
// relations' current ranges, narrows the ranges for each value, and
// recurses into the children; values whose children turn out empty are
// dropped. This avoids ever materialising flat intermediate results.
#ifndef FDB_CORE_GROUND_H_
#define FDB_CORE_GROUND_H_

#include <vector>

#include "common/trace.h"
#include "core/frep.h"
#include "storage/query.h"
#include "storage/relation.h"

namespace fdb {

/// Computes the factorised result of the natural join prescribed by `tree`
/// over the given relations.
///
/// `rels[i]` is the relation with query-local index i (matching the
/// `cover_rels` bits of the tree). `preds` are constant predicates applied
/// while loading. Relations are copied, filtered and sorted internally.
/// A non-null `trace` records a "ground" span carrying the result's
/// MemoryBytes (common/trace.h).
FRep GroundQuery(const FTree& tree, const std::vector<const Relation*>& rels,
                 const std::vector<ConstPred>& preds = {},
                 QueryTrace* trace = nullptr);

/// Factorises a single relation over its path f-tree (trie): the canonical
/// way to turn flat input into an f-representation before applying f-plan
/// operators. `rel_index` is the query-local relation index to record in
/// the f-tree.
FRep GroundRelation(const Relation& rel, int rel_index,
                    QueryTrace* trace = nullptr);

}  // namespace fdb

#endif  // FDB_CORE_GROUND_H_
