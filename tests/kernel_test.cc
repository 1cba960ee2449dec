// Compiled enumeration kernels and the SIMD arena-scan primitives.
//
// The kernel contract is byte-identity: for every representation shape,
// visibility mode and morsel restriction, EnumKernel::Emit must reproduce
// the interpreted TupleEnumerator stream value for value, and the
// kernel-aware MaterializeVisible must equal the interpreted overload for
// every thread count. The SIMD primitives are checked against their
// std:: reference implementations on randomised windows. Runs under
// ASan/TSan/UBSan in CI alongside the serve suite.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/engine.h"
#include "common/rng.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/parallel_enumerate.h"
#include "core/simd.h"
#include "serve/query_server.h"
#include "test_util.h"

namespace fdb {
namespace {

// ---------------------------------------------------------------------------
// SIMD primitives vs std:: references.
// ---------------------------------------------------------------------------

std::vector<Value> SortedUnique(Rng& rng, size_t n, int64_t domain) {
  std::vector<Value> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(rng.Uniform(1, domain));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(Simd, LowerBoundMatchesStd) {
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Value> v = SortedUnique(rng, 1 + trial * 7u, 200);
    std::vector<Value> keys = v;
    for (Value x : v) {
      keys.push_back(x - 1);
      keys.push_back(x + 1);
    }
    keys.push_back(-1000);
    keys.push_back(1000);
    for (Value key : keys) {
      const size_t expect = static_cast<size_t>(
          std::lower_bound(v.begin(), v.end(), key) - v.begin());
      EXPECT_EQ(simd::LowerBound(v.data(), v.size(), key), expect) << key;
    }
  }
  EXPECT_EQ(simd::LowerBound(nullptr, 0, 5), 0u);
}

TEST(Simd, FindValueMatchesStd) {
  Rng rng(7);
  std::vector<Value> v = SortedUnique(rng, 100, 300);
  for (Value key = 0; key <= 301; ++key) {
    const size_t got = simd::FindValue(v.data(), v.size(), key);
    const bool present = std::binary_search(v.begin(), v.end(), key);
    if (present) {
      ASSERT_LT(got, v.size());
      EXPECT_EQ(v[got], key);
    } else {
      EXPECT_EQ(got, v.size());
    }
  }
  EXPECT_EQ(simd::FindValue(nullptr, 0, 1), 0u);
}

TEST(Simd, CmpMaskMatchesEvalCmp) {
  Rng rng(13);
  std::vector<Value> vals;
  for (int i = 0; i < 257; ++i) vals.push_back(rng.Uniform(-5, 5));
  std::vector<uint8_t> mask(vals.size());
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    for (Value c : {-6, -1, 0, 3, 6}) {
      simd::CmpMask(vals.data(), vals.size(), op, c, mask.data());
      for (size_t i = 0; i < vals.size(); ++i) {
        EXPECT_EQ(mask[i] != 0, EvalCmp(vals[i], op, c))
            << "i=" << i << " v=" << vals[i] << " c=" << c;
      }
    }
  }
  simd::CmpMask(nullptr, 0, CmpOp::kEq, 0, nullptr);  // empty window is a no-op
}

// Reference intersection by nested lookup.
std::vector<std::pair<uint32_t, uint32_t>> RefIntersect(
    const std::vector<Value>& a, const std::vector<Value>& b) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (uint32_t i = 0; i < a.size(); ++i) {
    auto it = std::lower_bound(b.begin(), b.end(), a[i]);
    if (it != b.end() && *it == a[i]) {
      out.emplace_back(i, static_cast<uint32_t>(it - b.begin()));
    }
  }
  return out;
}

TEST(Simd, IntersectSortedMatchesReference) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Value> a = SortedUnique(rng, 1 + trial * 5u, 120);
    std::vector<Value> b = SortedUnique(rng, 1 + trial * 3u, 120);
    std::vector<std::pair<uint32_t, uint32_t>> got;
    const size_t n =
        simd::IntersectSorted(a.data(), a.size(), b.data(), b.size(), &got);
    EXPECT_EQ(n, got.size());
    EXPECT_EQ(got, RefIntersect(a, b));
  }
}

TEST(Simd, IntersectSortedGallopsBothWays) {
  // One side >= kGallopRatio times the other exercises the galloping path
  // (and its swapped variant); matches must be identical either way.
  Rng rng(5);
  std::vector<Value> small = SortedUnique(rng, 4, 4000);
  std::vector<Value> large = SortedUnique(rng, 2000, 4000);
  ASSERT_GE(large.size(), simd::kGallopRatio * small.size());
  std::vector<std::pair<uint32_t, uint32_t>> got;
  simd::IntersectSorted(small.data(), small.size(), large.data(), large.size(),
                        &got);
  EXPECT_EQ(got, RefIntersect(small, large));
  got.clear();
  simd::IntersectSorted(large.data(), large.size(), small.data(), small.size(),
                        &got);
  EXPECT_EQ(got, RefIntersect(large, small));
  // Empty windows.
  got.clear();
  EXPECT_EQ(simd::IntersectSorted(nullptr, 0, large.data(), large.size(), &got),
            0u);
  EXPECT_TRUE(got.empty());
}

// ---------------------------------------------------------------------------
// Kernel differential tests: compiled output == interpreted output.
// ---------------------------------------------------------------------------

Relation RandomRelation(std::vector<AttrId> schema, size_t rows,
                        int64_t domain, uint64_t seed) {
  Rng rng(seed);
  Relation r(std::move(schema));
  std::vector<Value> t(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (Value& v : t) v = rng.Uniform(1, domain);
    r.AddTuple(t);
  }
  return r;
}

// The interpreted stream flattened in the kernel's schema order — the
// byte-identity reference for Emit.
std::vector<Value> InterpretedFlat(const FRep& rep, const EnumKernel& k) {
  TupleEnumerator en(rep, k.visible_only());
  std::vector<Value> out;
  while (en.Next()) {
    for (AttrId a : k.schema()) out.push_back(en.ValueOf(a));
  }
  return out;
}

uint64_t InterpretedRows(const FRep& rep, bool visible_only) {
  TupleEnumerator en(rep, visible_only);
  uint64_t n = 0;
  while (en.Next()) ++n;
  return n;
}

// Full matrix on one rep: both visibility modes, whole-stream and
// morsel-restricted runs, count mode, and the kernel-aware materialiser
// across thread counts. Everything must equal the interpreted reference.
void CheckKernel(const FRep& rep) {
  for (bool visible_only : {false, true}) {
    EnumKernel k = EnumKernel::Compile(rep.tree(), visible_only);
    EXPECT_TRUE(k.Matches(rep.tree()));
    const std::vector<Value> expect = InterpretedFlat(rep, k);
    const uint64_t expect_rows = InterpretedRows(rep, visible_only);

    std::vector<Value> got;
    EXPECT_EQ(k.Emit(rep, {}, &got), expect_rows) << visible_only;
    EXPECT_EQ(got, expect) << visible_only;
    EXPECT_EQ(k.CountRows(rep, {}), expect_rows) << visible_only;

    // Morsel-restricted runs, concatenated in plan order, must reproduce
    // the whole stream — the shape ParallelEnumerator executes.
    for (double target : {1.0, 16.0}) {
      MorselPlan plan = PlanMorsels(rep, visible_only, target);
      std::vector<Value> chunked;
      uint64_t rows = 0;
      for (const Morsel& m : plan.morsels) {
        const uint64_t r = k.Emit(rep, m.bounds, &chunked);
        EXPECT_EQ(k.CountRows(rep, m.bounds), r);  // count mode agrees
        rows += r;
      }
      EXPECT_EQ(chunked, expect)
          << "visible_only=" << visible_only << " target=" << target;
      EXPECT_EQ(rows, expect_rows);
    }
  }
  // The kernel-aware materialiser equals the interpreted one for every
  // thread count (and for the null-kernel fallback).
  EnumKernel vk = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  const Relation seq = MaterializeVisible(rep);
  for (int threads : {1, 2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 16;
    EXPECT_TRUE(MaterializeVisible(rep, opts, &vk) == seq) << threads;
    EXPECT_TRUE(MaterializeVisible(rep, opts, nullptr) == seq) << threads;
  }
}

TEST(Kernel, PathTreeRandomised) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 200, 8, seed), 0);
    CheckKernel(rep);
  }
}

TEST(Kernel, HighFanoutStarJoin) {
  Database db;
  RelId s = db.CreateRelation("S", {"a", "b"});
  RelId t = db.CreateRelation("T", {"b2", "c"});
  Rng rng(99);
  Relation& rs = db.relation(s);
  Relation& rt = db.relation(t);
  for (int64_t i = 1; i <= 160; ++i) {
    rs.AddTuple({i, rng.Uniform(1, 4)});
    rt.AddTuple({rng.Uniform(1, 4), i});
  }
  Engine engine(&db);
  Query q;
  q.rels = {s, t};
  q.equalities = {{db.Attr("b"), db.Attr("b2")}};
  FdbResult res = engine.EvaluateFlat(q);
  ASSERT_FALSE(res.rep.empty());
  CheckKernel(res.rep);
}

TEST(Kernel, MultiRootProductForest) {
  Relation r = RandomRelation({0, 1}, 40, 16, 7);
  Relation s = RandomRelation({2, 3}, 30, 16, 8);
  FRep rep = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  CheckKernel(rep);
}

TEST(Kernel, SingleEntryTopUnion) {
  Rng rng(11);
  Relation r({0, 1, 2});
  for (int64_t i = 0; i < 120; ++i) {
    r.AddTuple({Value{7}, rng.Uniform(1, 30), rng.Uniform(1, 6)});
  }
  FRep rep = GroundRelation(r, 0);
  ASSERT_EQ(rep.u(rep.roots()[0]).size(), 1u);
  CheckKernel(rep);
}

TEST(Kernel, DeferredProjectionVisibleOnly) {
  // Invisible nodes change the visible_only frame set; the kernel must
  // lower against the same skipped frames the enumerator walks.
  Relation r = RandomRelation({0, 1, 2}, 150, 6, 21);
  FRep rep = GroundRelation(r, 0);
  rep.tree().node(rep.tree().FindAttr(1)).visible = {};
  rep.Validate();
  CheckKernel(rep);
}

TEST(Kernel, EmptyRep) {
  FRep rep{PathFTree({0, 1}, 0)};
  CheckKernel(rep);
  EnumKernel k = EnumKernel::Compile(rep.tree(), false);
  std::vector<Value> out;
  EXPECT_EQ(k.Emit(rep, {}, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Kernel, NullaryRep) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  CheckKernel(rep);
  EnumKernel k = EnumKernel::Compile(rep.tree(), true);
  std::vector<Value> out;
  EXPECT_EQ(k.Emit(rep, {}, &out), 1u);  // one empty row, nothing appended
  EXPECT_TRUE(out.empty());
}

TEST(Kernel, FullyInvisibleRepVisibleOnly) {
  Relation r = RandomRelation({0, 1}, 20, 5, 33);
  FRep rep = GroundRelation(r, 0);
  for (int n : rep.tree().AliveNodes()) rep.tree().node(n).visible = {};
  CheckKernel(rep);
  // The collapsed visible stream is the single empty tuple.
  EnumKernel k = EnumKernel::Compile(rep.tree(), true);
  EXPECT_TRUE(k.schema().empty());
  EXPECT_EQ(k.CountRows(rep, {}), 1u);
  EnumerateOptions opts;
  opts.threads = 8;
  opts.parallel_cutoff = 0;
  EXPECT_EQ(MaterializeVisible(rep, opts, &k).size(), 1u);
}

TEST(Kernel, MismatchedShapeFallsBack) {
  FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 80, 9, 17), 0);
  FRep other = GroundRelation(RandomRelation({0, 1}, 10, 4, 5), 0);
  EnumKernel wrong = EnumKernel::Compile(other.tree(), /*visible_only=*/true);
  EXPECT_FALSE(wrong.Matches(rep.tree()));
  // A full-tuple kernel is also rejected by the visible-only materialiser.
  EnumKernel full = EnumKernel::Compile(rep.tree(), /*visible_only=*/false);
  const Relation seq = MaterializeVisible(rep);
  EnumerateOptions opts;
  opts.threads = 2;
  opts.parallel_cutoff = 0;
  EXPECT_TRUE(MaterializeVisible(rep, opts, &wrong) == seq);
  EXPECT_TRUE(MaterializeVisible(rep, opts, &full) == seq);
}

TEST(Kernel, BoundsContract) {
  FRep rep = GroundRelation(RandomRelation({0, 1}, 10, 4, 5), 0);
  EnumKernel k = EnumKernel::Compile(rep.tree(), false);
  std::vector<Value> out;
  // Same rejection rules as the TupleEnumerator bounds constructor.
  EXPECT_THROW(k.Emit(rep, std::vector<EntryBound>{{0, 2}, {0, 1}}, &out),
               FdbError);
  EXPECT_THROW(k.Emit(rep, std::vector<EntryBound>{{1, 1}}, &out), FdbError);
  EXPECT_THROW(
      k.Emit(rep, std::vector<EntryBound>{{0, 1}, {0, 1}, {0, 1}}, &out),
      FdbError);
  // A bound past the union's entries yields the empty stream.
  out.clear();
  EXPECT_EQ(k.Emit(rep, std::vector<EntryBound>{{1000, 1001}}, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Kernel, EngineMaterializeResultKernel) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res =
      engine.Execute("SELECT * FROM Orders, Store WHERE o_item = s_item");
  EnumKernel k = EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true);
  EXPECT_TRUE(engine.MaterializeResult(res, &k) ==
              engine.MaterializeResult(res));
  EXPECT_TRUE(engine.MaterializeResult(res, nullptr) ==
              engine.MaterializeResult(res));
}

// ---------------------------------------------------------------------------
// The materialisation contract: rows in f-tree order, recorded in
// sort_order(), identical across every sink.
// ---------------------------------------------------------------------------

// `rows` over `schema` as a sorted, deduplicated relation.
Relation Reference(std::vector<AttrId> schema,
                   const std::vector<std::vector<Value>>& rows) {
  Relation r(std::move(schema));
  for (const std::vector<Value>& t : rows) r.AddTuple(t);
  r.SortLex();
  return r;
}

// Every sink — sequential, interpreted and kernel at 1, 2 and 8 threads —
// must return rows that are duplicate-free, strictly increasing under
// their recorded sort_order(), equal to `reference` as a set, and
// byte-identical (rows and order) to each other. The recorded order is
// the f-tree stream order unless a hidden node sits above a visible one
// (`hidden_ancestor`), where the sink falls back to sort + dedup.
void CheckSinkContract(const FRep& rep, const Relation& reference,
                       bool hidden_ancestor) {
  const std::vector<size_t> stream = VisibleStreamOrder(rep.tree());
  const bool nullary = reference.arity() == 0;
  EXPECT_EQ(stream.empty(), hidden_ancestor || nullary);
  const Relation seq = MaterializeVisible(rep);
  if (nullary) {
    EXPECT_TRUE(seq.sort_order().empty());
  } else if (hidden_ancestor) {
    std::vector<size_t> lex(seq.arity());
    for (size_t c = 0; c < lex.size(); ++c) lex[c] = c;
    EXPECT_EQ(seq.sort_order(), lex);
  } else {
    EXPECT_EQ(seq.sort_order(), stream);
  }
  const EnumKernel k = EnumKernel::Compile(rep.tree(), /*visible_only=*/true);
  std::vector<Relation> outs = {seq};
  for (int threads : {1, 2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 4;
    outs.push_back(MaterializeVisible(rep, opts));
    outs.push_back(MaterializeVisible(rep, opts, &k));
    outs.push_back(MaterializeVisible(rep, opts, nullptr));
  }
  for (size_t i = 0; i < outs.size(); ++i) {
    const Relation& out = outs[i];
    EXPECT_TRUE(testing_util::RowsFollowSortOrder(out)) << "sink " << i;
    EXPECT_TRUE(testing_util::SameRows(out, reference)) << "sink " << i;
    EXPECT_TRUE(out == seq) << "sink " << i;
    EXPECT_EQ(out.sort_order(), seq.sort_order()) << "sink " << i;
  }
  // A consumer that needs ascending-column order gets the reference.
  Relation lex = seq;
  lex.SortLex();
  EXPECT_TRUE(lex == reference);
}

TEST(Kernel, ContractMultiRootForest) {
  Relation r = RandomRelation({0, 1}, 40, 6, 7);
  Relation s = RandomRelation({2, 3}, 30, 6, 8);
  r.SortLex();
  s.SortLex();
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      rows.push_back({r.At(i, 0), r.At(i, 1), s.At(j, 0), s.At(j, 1)});
    }
  }
  // Root order (s's tree first) differs from ascending attribute ids.
  FRep rep = Product(GroundRelation(s, 1), GroundRelation(r, 0));
  ASSERT_EQ(rep.tree().roots().size(), 2u);
  EXPECT_EQ(VisibleStreamOrder(rep.tree()),
            (std::vector<size_t>{2, 3, 0, 1}));
  CheckSinkContract(rep, Reference({0, 1, 2, 3}, rows), false);
}

TEST(Kernel, ContractMultiAttributeClasses) {
  // A star join: the join class {b, b2} is one node with two visible
  // attributes, and it roots the tree above a and c.
  Database db;
  RelId s = db.CreateRelation("S", {"a", "b"});
  RelId t = db.CreateRelation("T", {"b2", "c"});
  Rng rng(31);
  for (int64_t i = 1; i <= 60; ++i) {
    db.relation(s).AddTuple({rng.Uniform(1, 20), rng.Uniform(1, 4)});
    db.relation(t).AddTuple({rng.Uniform(1, 4), rng.Uniform(1, 20)});
  }
  Engine engine(&db);
  Query q;
  q.rels = {s, t};
  q.equalities = {{db.Attr("b"), db.Attr("b2")}};
  FdbResult res = engine.EvaluateFlat(q);
  ASSERT_FALSE(res.rep.empty());
  const Relation flat = engine.ExecuteRdb(q).relation;
  CheckSinkContract(res.rep, flat, false);
  // The stream is not in ascending-column order: the join class {b, b2}
  // (columns 1 and 2) leads, b standing for both.
  const std::vector<size_t> order = VisibleStreamOrder(res.rep.tree());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[3], 2u);

  // Projecting the join class away leaves no hidden node behind.
  q.projection = AttrSet::Of({db.Attr("a"), db.Attr("c")});
  FdbResult proj = engine.EvaluateFlat(q);
  CheckSinkContract(proj.rep, engine.ExecuteRdb(q).relation, false);
}

TEST(Kernel, ContractDeferredProjectionHidingAnAncestor) {
  Relation r = RandomRelation({0, 1, 2}, 150, 5, 41);
  FRep rep = GroundRelation(r, 0);  // path 0 -> 1 -> 2
  rep.tree().node(rep.tree().FindAttr(0)).visible = {};
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < r.size(); ++i) {
    rows.push_back({r.At(i, 1), r.At(i, 2)});
  }
  const Relation reference = Reference({1, 2}, rows);
  // The stream repeats rows (equal (1, 2) under different 0-values), so
  // the fallback's dedup has work to do.
  ASSERT_LT(reference.size(), InterpretedRows(rep, /*visible_only=*/true));
  CheckSinkContract(rep, reference, true);

  // Hiding only the leaf keeps every kept frame visible: no sort.
  FRep leaf = GroundRelation(r, 0);
  leaf.tree().node(leaf.tree().FindAttr(2)).visible = {};
  rows.clear();
  for (size_t i = 0; i < r.size(); ++i) {
    rows.push_back({r.At(i, 0), r.At(i, 1)});
  }
  CheckSinkContract(leaf, Reference({0, 1}, rows), false);
}

TEST(Kernel, ContractEmptyAndNullaryReps) {
  CheckSinkContract(FRep{PathFTree({0, 1}, 0)}, Relation({0, 1}), false);
  FRep nullary{FTree{}};
  nullary.MarkNonEmpty();
  Relation one({});
  one.AddTuple(std::vector<Value>{});
  CheckSinkContract(nullary, one, false);
}

TEST(Kernel, ServerCompilesOncePerPlanMiss) {
  auto db = testing_util::MakeGroceryDb();
  ServeOptions opts;
  opts.num_workers = 2;
  QueryServer server(db.get(), opts);
  const std::string sql = "SELECT * FROM Orders, Store WHERE o_item = s_item";
  ServeResponse first = server.Query(sql);
  EXPECT_EQ(first.status, ServeStatus::kOk);
  ServeResponse second = server.Query(sql);
  EXPECT_EQ(second.status, ServeStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  ServerStats s = server.stats();
  EXPECT_EQ(s.executed, 2u);
  // One kernel per plan-cache miss; the warm repeat must not recompile.
  EXPECT_EQ(s.kernels_built, 1u);
}

}  // namespace
}  // namespace fdb
