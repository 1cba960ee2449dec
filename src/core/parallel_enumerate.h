// Parallel chunked enumeration: morsel-driven multi-core tuple streaming
// from f-representations.
//
// Constant-delay enumeration (core/enumerate.h) is a lexicographic
// odometer over the pre-order frames of the f-tree, which makes it
// embarrassingly partitionable over the *top* frames: restricting the
// first frame's union to an entry range [b, e) — and, when one entry
// dominates, pinning it and recursing one level down — carves the tuple
// stream into contiguous, disjoint slices. The planner (PlanMorsels)
// builds such slices ("morsels", after Leis et al., Morsel-Driven
// Parallelism, SIGMOD'14 — see PAPERS.md) of bounded estimated output
// using the per-subtree tuple counts of the CountTuples DP
// (FRep::SubtreeTupleCounts), and ParallelEnumerator runs one
// range-restricted TupleEnumerator per morsel on the shared thread pool
// (common/thread_pool.h).
//
// Determinism: morsels partition the stream in lexicographic odometer
// order, so concatenating per-chunk results by chunk index reproduces the
// sequential enumeration byte for byte, regardless of thread count or
// scheduling (tests/parallel_enumerate_test.cc asserts this tuple for
// tuple; the TSan CI job runs it under ThreadSanitizer).
#ifndef FDB_CORE_PARALLEL_ENUMERATE_H_
#define FDB_CORE_PARALLEL_ENUMERATE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/trace.h"
#include "core/enumerate.h"
#include "core/frep.h"
#include "storage/relation.h"

namespace fdb {

class EnumKernel;  // core/kernel.h

/// Knobs of one (possibly parallel) enumeration.
struct EnumerateOptions {
  /// Maximum threads enumerating concurrently (including the caller).
  /// 0 = size of the shared pool + 1; 1 = sequential on the caller.
  int threads = 0;

  /// Estimated output (tuples) below which enumeration stays on the
  /// calling thread — morsel planning and thread handoff are not worth it
  /// for small results.
  double parallel_cutoff = 32768;

  /// Morsels per thread the planner aims for; more morsels = better load
  /// balance, more per-chunk overhead.
  int morsels_per_thread = 8;

  /// Override of the target tuples per morsel (0 = derived from the total
  /// estimate, threads and morsels_per_thread). Mainly for tests.
  double target_morsel_tuples = 0;
};

/// One work slice: a restriction chain on the top pre-order frames (see
/// the TupleEnumerator bounds constructor) plus its estimated output.
/// An empty bounds vector denotes the whole stream.
struct Morsel {
  std::vector<EntryBound> bounds;
  double est_tuples = 0;
};

/// A partition of the enumeration stream. Morsels are in lexicographic
/// odometer order: concatenating their streams by index reproduces the
/// sequential enumeration exactly.
struct MorselPlan {
  std::vector<Morsel> morsels;
  double est_total = 0;  ///< estimated stream length (restricted count)
};

/// Splits the enumeration stream of `rep` (frames as per `visible_only`)
/// into morsels of roughly `target_tuples` estimated output each. Entries
/// of the first frame's union are packed greedily; an entry whose subtree
/// alone exceeds the target is pinned and the next frame is split
/// recursively. Always returns at least one morsel for a non-empty rep;
/// the empty rep yields an empty plan.
MorselPlan PlanMorsels(const FRep& rep, bool visible_only,
                       double target_tuples);

/// Runs range-restricted TupleEnumerators over a morsel plan, one chunk
/// per morsel, on the shared thread pool.
class ParallelEnumerator {
 public:
  /// Plans the enumeration. Falls back to one whole-stream chunk when the
  /// resolved thread count is 1, the estimate is below
  /// opts.parallel_cutoff, or the rep has no splittable frames (nullary).
  ParallelEnumerator(const FRep& rep, EnumerateOptions opts = {},
                     bool visible_only = false);

  /// Number of chunks Enumerate() will deliver (0 for the empty rep).
  size_t num_chunks() const { return plan_.morsels.size(); }

  /// Resolved maximum concurrency (including the caller thread).
  int threads() const { return threads_; }

  const MorselPlan& plan() const { return plan_; }

  /// Calls consume(chunk, enumerator) for every chunk in [0, num_chunks()),
  /// concurrently on up to threads() threads. `consume` must be safe to
  /// run concurrently for distinct chunks; chunk index order equals
  /// sequential stream order, so writing chunk results into per-index
  /// slots and concatenating reproduces sequential output exactly.
  /// Rethrows the first exception a chunk throws.
  void Enumerate(
      const std::function<void(size_t, TupleEnumerator&)>& consume) const;

  /// Lower-level scheduling hook: calls fn(chunk) for every chunk index,
  /// concurrently on up to threads() threads, without constructing
  /// enumerators — for consumers that run their own per-morsel walk (the
  /// compiled-kernel materialisation reads plan().morsels[chunk].bounds).
  /// Same concurrency and exception contract as Enumerate().
  void ForEachChunk(const std::function<void(size_t)>& fn) const;

 private:
  const FRep* rep_;
  bool visible_only_;
  int threads_;
  MorselPlan plan_;
};

/// Parallel MaterializeVisible: identical output to the sequential
/// overload in core/enumerate.h (same rows in the same f-tree order, the
/// same recorded sort_order()), enumerated on up to opts.threads cores for
/// large representations.
Relation MaterializeVisible(const FRep& rep, const EnumerateOptions& opts);

/// Kernel-accelerated MaterializeVisible: when `kernel` is a visible-mode
/// kernel whose compiled shape matches rep.tree() (EnumKernel::Matches),
/// rows are emitted by one kernel run per morsel — extraction fused into
/// emission — on up to opts.threads cores; otherwise rows come from the
/// interpreted enumerator (null kernels are fine). Output is identical
/// either way: rows in f-tree order, recorded in sort_order(). A non-null
/// `trace` records a "morsel-plan" span (rows = chunk count) and an
/// "enumerate" span (rows = output rows), both opened on the calling
/// thread around the whole fan-out — per-morsel work is aggregated, never
/// one span per morsel (common/trace.h) — and, inside "enumerate", a
/// "sort" span when a hidden ancestor forces the sort + dedup fallback.
Relation MaterializeVisible(const FRep& rep, const EnumerateOptions& opts,
                            const EnumKernel* kernel,
                            QueryTrace* trace = nullptr);

}  // namespace fdb

#endif  // FDB_CORE_PARALLEL_ENUMERATE_H_
