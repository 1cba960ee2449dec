// Tuple enumeration from f-representations.
//
// F-representations allow constant-delay enumeration: O(|E|) preparation and
// O(|S|) delay between successive tuples (§2). TupleEnumerator implements
// this with an explicit odometer over the f-tree's pre-order: advancing to
// the next tuple touches each of the |T| frames at most once.
#ifndef FDB_CORE_ENUMERATE_H_
#define FDB_CORE_ENUMERATE_H_

#include <vector>

#include "common/trace.h"
#include "core/frep.h"
#include "storage/relation.h"

namespace fdb {

/// One pre-order frame of an f-tree walk: the node, the index of its
/// parent's frame in the frame list (-1 for roots), and the child slot
/// within the parent (for roots: the slot in the root list).
struct PreOrderFrame {
  int node;
  int parent_pos;
  size_t slot;
};

/// Frames for t.PreOrder(). When `keep` is given (indexed by node id, and
/// closed under parents: a kept node's parent is kept), skipped nodes get
/// no frame. Shared by TupleEnumerator and GroupedRep::Materialize.
std::vector<PreOrderFrame> BuildPreOrderFrames(const FTree& t,
                                               const std::vector<char>* keep =
                                                   nullptr);

/// The node mask of visible_only enumeration: a node is kept iff its
/// subtree contains a visible attribute (closed under parents, so it is a
/// valid `keep` argument for BuildPreOrderFrames).
std::vector<char> VisibleKeepMask(const FTree& t);

/// Half-open entry range [begin, end) restricting one pre-order frame of
/// an enumeration (see the TupleEnumerator bounds constructor). Produced
/// by the morsel planner in core/parallel_enumerate.h.
struct EntryBound {
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Streams the tuples of an f-representation.
///
/// Contract: in the default mode each *distinct tuple over all attributes
/// of the f-tree* (visible or not) is emitted exactly once; callers
/// project as needed. Projecting the stream onto the visible attributes
/// may therefore repeat visible tuples when the tree retains invisible
/// (projected-away) nodes — consumers that count or aggregate the visible
/// relation must deduplicate, or enumerate with `visible_only`.
///
/// `visible_only` skips every subtree that contains no visible attribute:
/// odometer positions that differ only inside such subtrees collapse into
/// one, so invisible-only nodes no longer multiply the stream. Duplicate
/// *visible* tuples can still arise from invisible nodes that have visible
/// descendants (two values of the invisible node may lead to equal visible
/// sub-tuples below — a data property no structural skip can detect);
/// MaterializeVisible removes those by sort+dedup. Without such nodes the
/// stream is duplicate-free and sorted (VisibleStreamOrder). In this mode
/// only visible attributes of the current tuple are meaningful.
///
/// Order: tuples stream in the lexicographic order of the frames' values,
/// frames taken in f-tree pre-order (the first root's frames first), since
/// the odometer advances the deepest frame and every union is strictly
/// increasing.
class TupleEnumerator {
 public:
  explicit TupleEnumerator(const FRep& rep, bool visible_only = false);

  /// Range-restricted enumeration: `bounds[i]` restricts the entries of
  /// pre-order frame i (the same frame order the unrestricted enumerator
  /// walks, after the visible_only skip) to [begin, end). Every bound but
  /// the last must pin exactly one entry (begin + 1 == end), so the
  /// restricted frames form a chain whose unions never change during the
  /// walk — the shape the morsel planner emits. The restricted stream is
  /// a contiguous slice of the unrestricted stream, in the same order;
  /// a bound that misses its union entirely yields the empty stream.
  TupleEnumerator(const FRep& rep, bool visible_only,
                  std::vector<EntryBound> bounds);

  /// Advances to the next tuple; false when exhausted. The first call
  /// positions the enumerator on the first tuple.
  bool Next();

  /// Value of `attr` in the current tuple (valid after Next() == true).
  Value ValueOf(AttrId attr) const { return current_[attr]; }

  /// The current tuple indexed by attribute id (sparse; only attributes of
  /// the f-tree are meaningful).
  const std::vector<Value>& current() const { return current_; }

 private:
  struct Frame : PreOrderFrame {
    uint32_t union_id = 0;
    size_t entry = 0;
    /// Entries strictly below this advance: min(union size, bound end),
    /// folded in at reset so the hot advance loop compares one cached
    /// value instead of re-reading the union header and re-clamping the
    /// bound on every step.
    size_t limit = 0;
  };

  // Sets frames_[i].union_id from the parent frame (or root slot), resets
  // its entry to the frame's lower bound (0 when unbounded), caches the
  // frame's entry limit and writes the class values into current_. Returns
  // false when the bound misses the union entirely — possible only on the
  // first pass, since bounded frames form a pinned chain whose unions
  // never change afterwards.
  bool ResetFrame(size_t i);
  void WriteValues(size_t i);

  const FRep* rep_;
  std::vector<Frame> frames_;      // pre-order
  std::vector<size_t> root_slot_;  // frame index -> slot in rep roots
  std::vector<Value> current_;     // indexed by AttrId
  std::vector<EntryBound> bounds_;  // per-frame ranges on a prefix of frames_
  bool started_ = false;
  bool done_ = false;
  bool nullary_pending_ = false;
};

/// Row order of the visible_only stream of any representation over `t`,
/// as a total column order over the visible schema (visible attributes in
/// increasing id order). Per kept pre-order frame, the column of the
/// smallest visible attribute of its class (the class's other visible
/// columns repeat that value), then the remaining columns as tie-breakers.
/// When every kept frame carries a visible attribute — no hidden node has
/// a visible descendant, which Project guarantees for every result the
/// engine produces — the visible tuple fixes every frame's entry, so the
/// stream is strictly increasing under this order: sorted and
/// duplicate-free without a sort. Returns the empty vector otherwise (a
/// hidden ancestor: the stream may repeat visible tuples), and for an
/// empty visible schema.
std::vector<size_t> VisibleStreamOrder(const FTree& t);

/// Materialises the visible part of `rep` as a relation with schema =
/// visible attributes in increasing id order, duplicate-free, with rows in
/// f-tree order: the enumeration order, recorded in the relation's
/// sort_order() (VisibleStreamOrder). Only a representation with a hidden
/// node above a visible one (deferred projection, never an engine result)
/// is sorted and deduplicated instead, under ascending-column order.
/// Callers that need ascending-column order call SortLex(), which costs
/// nothing when the orders coincide. Enumerates with `visible_only`, so
/// invisible-only subtrees do not blow up the intermediate stream, and
/// reserves the output capacity from the restricted tuple count up front
/// (no growth reallocations). For large representations the overload
/// taking EnumerateOptions (core/parallel_enumerate.h) enumerates on
/// multiple cores; every overload returns the same rows in the same order.
Relation MaterializeVisible(const FRep& rep);

namespace internal {

/// Sequential MaterializeVisible sink with a pre-computed pre-dedup row
/// count (<= 0: unknown, counted here). Shared by the public overloads so
/// each call sizes the stream with exactly one DP pass. A non-null `trace`
/// records the fallback "sort" span (FinishVisibleStream).
Relation MaterializeVisibleSized(const FRep& rep, double est_rows,
                                 QueryTrace* trace = nullptr);

/// The last step of every MaterializeVisible sink, given `out` holding the
/// visible_only stream of a representation over `t` in stream order:
/// records VisibleStreamOrder(t) as the sort order, or — when it is empty —
/// sorts and deduplicates under a "sort" trace span (rows in and out).
void FinishVisibleStream(const FTree& t, Relation* out, QueryTrace* trace);

}  // namespace internal

}  // namespace fdb

#endif  // FDB_CORE_ENUMERATE_H_
