#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <iomanip>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aggregate.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/parallel_enumerate.h"
#include "opt/estimates.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/query_server.h"

namespace perfbench {

using fdb::AttrId;
using fdb::AttrSet;
using fdb::FRep;
using fdb::PlanStep;
using fdb::Timer;

// ---------------------------------------------------------------- Tracer

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             fdb::MonotonicClock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (t_ == nullptr) return;
  index_ = static_cast<int32_t>(t_->spans_.size());
  const int32_t parent = t_->open_.empty() ? -1 : t_->open_.back();
  t_->spans_.push_back(Span{name, parent, t_->query_, t_->NowNs(), 0});
  t_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[static_cast<size_t>(index_)].end_ns = t_->NowNs();
  t_->open_.pop_back();
}

void Tracer::Write(std::ostream& os) const {
  os << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "[\"" << s.name << "\", " << s.parent << ", "
       << s.query << ", " << s.start_ns << ", " << s.end_ns << "]";
  }
  os << "]}\n";
}

// ---------------------------------------------------------------- Output

namespace {

void WriteDoubles(std::ostream& os, const std::vector<double>& v) {
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Output::Write(std::ostream& os) const {
  os << std::setprecision(17);
  os << "{\n\"setup_s\": " << setup_s << ",\n\"epoch_s\": " << epoch_s
     << ",\n\"latency_s\": ";
  WriteDoubles(os, latency_s);
  os << ",\n\"result_bytes\": ";
  WriteDoubles(os, result_bytes);
  os << ",\n\"attempted\": " << attempted << ",\n\"wrong\": " << wrong << ",\n\"errors\": " << errors
     << ",\n\"traced_latency_s\": ";
  WriteDoubles(os, traced_latency_s);
  os << ",\n\"samples\": {";
  bool first = true;
  for (const auto& [name, v] : samples) {
    os << (first ? "\n" : ",\n") << JsonString(name) << ": ";
    WriteDoubles(os, v);
    first = false;
  }
  os << "},\n\"stats_exposition\": " << JsonString(stats_exposition)
     << ",\n\"peak_rss_kb\": " << peak_rss_kb << ",\n\"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    os << (i ? ", " : "") << JsonString(notes[i]);
  }
  os << "],\n\"compiler\": " << JsonString(__VERSION__)
     << ",\n\"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\n\"pool_threads\": " << fdb::ThreadPool::Shared().size() << "\n}\n";
}

// ---------------------------------------------------------------- Workload

namespace {

/// Statement order: rounds of a seeded permutation of [0, n).
class RoundRobin {
 public:
  RoundRobin(size_t n, uint64_t seed) : rng_(seed), order_(n) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }
  size_t Next() {
    if (pos_ == 0) rng_.Shuffle(order_);
    const size_t i = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return i;
  }

 private:
  fdb::Rng rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

}  // namespace

void Workload::Measure(double seconds, int epoch, Output* out) {
  RoundRobin order(NumStatements(), seed_ ^ 0x51ed);
  // Epoch e runs on allowed CPU e (modulo their number). On the 4-vCPU
  // host this was written on, single CPUs slowed down by up to 1.7x for
  // tens of seconds while the scheduler kept a busy thread where it was;
  // rotating over the epochs spends equal time on every CPU. Pool threads
  // keep the full mask.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  if (!cpus.empty()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<size_t>(epoch) % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  // The answer checks run inside the loop but are not measured time:
  // epoch_s, and with it throughput_qps, counts only the queries.
  Timer wall;
  double checking_s = 0;
  while (wall.Seconds() < seconds) {
    const size_t i = order.Next();
    Timer t;
    Answer a;
    try {
      a = Run(i);
    } catch (const std::exception& e) {
      ++out->errors;
      out->Note(std::string("statement ") + std::to_string(i) + ": " + e.what());
    }
    out->latency_s.push_back(t.Seconds());
    ++out->attempted;
    if (a.result_bytes > 0) out->result_bytes.push_back(a.result_bytes);
    Timer check;
    if (a.check && !a.check()) {
      ++out->wrong;
      out->Note("wrong answer to statement " + std::to_string(i));
    }
    checking_s += check.Seconds();
  }
  out->epoch_s = wall.Seconds() - checking_s;
  if (!cpus.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
}

void Workload::MeasureTraced(double seconds, Tracer* tracer, Output* out) {
  RoundRobin order(NumStatements(), seed_ ^ 0x51ed);
  const std::vector<std::string> sql = Statements();
  fdb::EdgeCoverSolver& solver = engine().solver();
  const uint64_t hits0 = solver.hit_count(), solves0 = solver.solve_count();
  Timer wall;
  int64_t q = 0;
  while (wall.Seconds() < seconds || q < kMinTracedQueries) {
    const size_t i = order.Next();
    tracer->set_query(q);
    const size_t first = tracer->spans().size();
    Answer a;
    try {
      Tracer::Scope root(tracer, "query");
      a = RunTraced(i, tracer, out);
    } catch (const std::exception& e) {
      ++out->errors;
      out->Note(std::string("traced statement ") + std::to_string(i) + ": " +
                e.what());
    }
    const Tracer::Span& root = tracer->spans()[first];
    out->traced_latency_s.push_back(
        static_cast<double>(root.end_ns - root.start_ns) * 1e-9);
    if (a.check && !a.check()) {
      ++out->wrong;
      out->Note("wrong traced answer to statement " + std::to_string(i));
    }
    tracer->set_query(-1);
    if (q % kProbeEvery == 0) {
      LayerProbe(db(), engine(), sql[i], tracer, out);
    }
    ++q;
  }
  Sample(out, "lp.edge_cover_hits",
         static_cast<double>(solver.hit_count() - hits0));
  Sample(out, "lp.edge_cover_solves",
         static_cast<double>(solver.solve_count() - solves0));
  ServeProbe(db(), sql, out);
}

std::vector<int64_t> BalancedColumn(size_t rows, int64_t lo, int64_t hi,
                                    fdb::Rng& rng) {
  std::vector<int64_t> col(rows);
  const int64_t span = hi - lo + 1;
  for (size_t i = 0; i < rows; ++i) {
    col[i] = lo + static_cast<int64_t>(i) % span;
  }
  rng.Shuffle(col);
  return col;
}

// ------------------------------------------------------------ layer probes

void SampleSizeQError(const fdb::DatabaseStats& stats, const FRep& rep,
                      Output* out) {
  const double actual = static_cast<double>(rep.NumSingletons());
  if (actual <= 0) return;
  const double est = fdb::EstimateFRepSize(stats, rep.tree());
  if (est <= 0) return;
  Sample(out, "opt.size_qerror", std::max(est / actual, actual / est));
}

namespace {

const char* OpSpanName(PlanStep::Kind k) {
  switch (k) {
    case PlanStep::Kind::kSwap:
      return "core.op_swap";
    case PlanStep::Kind::kPushUp:
      return "core.op_pushup";
    case PlanStep::Kind::kMerge:
      return "core.op_merge";
    case PlanStep::Kind::kAbsorb:
      return "core.op_absorb";
    case PlanStep::Kind::kNormalize:
      return "core.op_normalize";
    case PlanStep::Kind::kSelectConst:
      return "core.op_select";
    case PlanStep::Kind::kProject:
      return "core.op_project";
  }
  return "core.op_other";
}

AttrId FirstAttr(AttrSet s) {
  for (AttrId a : s) return a;
  return 0;
}

/// One step of each operator kind that applies to `rep`'s f-tree: a swap
/// of some node with its parent, a merge of two sibling classes, an absorb
/// of a descendant class into an ancestor, a constant selection and a
/// projection onto `keep`.
std::vector<PlanStep> OneStepPerOperator(const FRep& rep, AttrSet keep) {
  const fdb::FTree& t = rep.tree();
  std::vector<PlanStep> steps;
  const std::vector<int> alive = t.AliveNodes();
  auto attr = [&](int n) { return FirstAttr(t.node(n).attrs); };
  bool swap = false, merge = false, absorb = false;
  for (int n : alive) {
    const int p = t.node(n).parent;
    if (p >= 0 && !swap) {
      steps.push_back(PlanStep::MakeSwap(attr(p), attr(n)));
      swap = true;
    }
    for (int m : alive) {
      if (m == n) continue;
      if (!merge && m > n && t.node(m).parent == p) {
        steps.push_back(PlanStep::MakeMerge(attr(n), attr(m)));
        merge = true;
      }
      if (!absorb && t.IsAncestor(n, m)) {
        steps.push_back(PlanStep::MakeAbsorb(attr(n), attr(m)));
        absorb = true;
      }
    }
  }
  if (!alive.empty()) {
    steps.push_back(
        PlanStep::MakeSelectConst(attr(alive.front()), fdb::CmpOp::kLe, 10));
  }
  steps.push_back(PlanStep::MakeProject(keep));
  return steps;
}

/// Enumeration, sort and materialisation of `vis` (visible attributes).
void EnumerationProbe(const FRep& vis, Tracer* tracer, Output* out) {
  fdb::EnumKernel kernel = [&] {
    Tracer::Scope s(tracer, "core.kernel_compile");
    return fdb::EnumKernel::Compile(vis.tree(), /*visible_only=*/true);
  }();
  if (kernel.schema().empty()) return;
  const int threads = fdb::ThreadPool::Shared().size() + 1;
  const double total = static_cast<double>(kernel.CountRows(vis, {}));
  {
    Tracer::Scope s(tracer, "core.morsel_plan");
    fdb::PlanMorsels(vis, /*visible_only=*/true,
                     std::max(1.0, total / (threads * 8)));
  }
  std::vector<fdb::Value> rows;
  {
    Tracer::Scope s(tracer, "core.enumerate");
    kernel.Emit(vis, {}, &rows);
  }
  // Kernel per morsel on the shared pool: 1 thread against all of them.
  auto emit_chunks = [&](int nthreads) {
    fdb::EnumerateOptions opts;
    opts.threads = nthreads;
    opts.parallel_cutoff = 0;
    fdb::ParallelEnumerator pe(vis, opts, /*visible_only=*/true);
    std::vector<std::vector<fdb::Value>> chunks(pe.num_chunks());
    Timer t;
    pe.ForEachChunk([&](size_t c) {
      kernel.Emit(vis, pe.plan().morsels[c].bounds, &chunks[c]);
    });
    return t.Seconds();
  };
  const double t1 = emit_chunks(1), tn = emit_chunks(threads);
  if (tn > 0) Sample(out, "core.enumerate_speedup", t1 / tn);
  {
    Tracer::Scope s(tracer, "core.materialize");
    fdb::MaterializeVisible(vis, fdb::EnumerateOptions{}, &kernel);
  }
  fdb::Relation copy(kernel.schema());
  copy.AppendRows(rows);
  {
    Tracer::Scope s(tracer, "storage.sort_lex");
    copy.SortLex();
  }
  Sample(out, "storage.result_rows", static_cast<double>(copy.size()));
}

/// An equality of `eqs` between an attribute of `a` and one of `b`, else
/// the pair of their first attributes.
std::pair<AttrId, AttrId> JoinEquality(
    const fdb::Relation& a, const fdb::Relation& b,
    const std::vector<std::pair<AttrId, AttrId>>& eqs) {
  for (const auto& [x, y] : eqs) {
    if (a.HasAttr(x) && b.HasAttr(y)) return {x, y};
    if (a.HasAttr(y) && b.HasAttr(x)) return {y, x};
  }
  return {a.schema().front(), b.schema().front()};
}

// Results with more tuples than this are not enumerated by the probe.
constexpr double kProbeEnumerateCap = 2e6;

}  // namespace

FRep ReplayPlan(const FRep& in, const fdb::FPlan& plan, Tracer* tracer) {
  Tracer::Scope exec(tracer, "core.fplan_exec");
  FRep cur = in;
  for (const PlanStep& step : plan.steps) {
    Tracer::Scope s(tracer, OpSpanName(step.kind));
    cur = fdb::ExecuteStep(cur, step);
  }
  return cur;
}

void LayerProbe(fdb::Database& db, fdb::Engine& engine, const std::string& sql,
                Tracer* tracer, Output* out) {
  Tracer::Scope root(tracer, "probe");
  fdb::Query q;
  {
    Tracer::Scope s(tracer, "sql.parse");
    q = engine.Parse(sql);
  }
  const fdb::Query core = q.SpjCore();
  const fdb::QueryInfo info = fdb::AnalyzeQuery(db.catalog(), core);
  fdb::FTreeSearchResult tree;
  {
    Tracer::Scope s(tracer, "opt.ftree_search");
    tree = engine.OptimizeFlat(core);
  }
  const std::vector<const fdb::Relation*> rels = db.RelationPtrs(q.rels);
  FRep full{fdb::FTree{}};
  {
    Tracer::Scope s(tracer, "core.ground");
    full = fdb::GroundQuery(tree.tree, rels, q.const_preds);
  }
  if (full.empty()) return;
  SampleGround(full, out);
  SampleSizeQError(fdb::DatabaseStats::Compute(rels), full, out);

  // The statement's own projection; without one (SELECT *, or GROUP BY
  // whose input is the whole join) the probe projects onto the first half
  // of the attributes and enumerates the unprojected result.
  const bool projects = !q.IsAggregate() && q.projection != AttrSet{} &&
                        q.projection != info.all_attrs;
  AttrSet keep = q.projection;
  if (!projects) {
    keep = {};
    const int half = std::max(1, info.all_attrs.Size() / 2);
    int n = 0;
    for (AttrId a : info.all_attrs) {
      if (n++ < half) keep.Add(a);
    }
  }
  FRep projected{fdb::FTree{}};
  {
    Tracer::Scope s(tracer, "core.project");
    projected = fdb::Project(full, keep);
  }
  const FRep& vis = projects ? projected : full;
  if (vis.CountTuples() <= kProbeEnumerateCap) {
    EnumerationProbe(vis, tracer, out);
  }

  {
    fdb::FPlan agg_plan;
    fdb::GroupedRep grouped = [&] {
      Tracer::Scope s(tracer, "core.aggregate");
      return fdb::GroupByAggregate(
          full, AttrSet::Of({FirstAttr(keep)}),
          {fdb::AggSpec{fdb::AggFn::kCount, 0},
           fdb::AggSpec{fdb::AggFn::kSum, FirstAttr(info.all_attrs)}},
          &engine.solver(), &agg_plan);
    }();
    Sample(out, "core.agg_swaps", static_cast<double>(agg_plan.steps.size()));
    Tracer::Scope s(tracer, "core.materialize_groups");
    fdb::GroupedTable table = grouped.Materialize(fdb::EnumerateOptions{});
    table.SortByKey();
  }

  // f-plan search and execution on factorised input: the product of the
  // first two relations, each grounded over its path f-tree, joined on one
  // equality. (Searching on the whole result tree is exponential in its
  // size and takes seconds on the 27-attribute ladder.)
  if (rels.size() >= 2) {
    const fdb::FRep product = fdb::Product(fdb::GroundRelation(*rels[0], 0),
                                           fdb::GroundRelation(*rels[1], 1));
    const std::vector<std::pair<AttrId, AttrId>> eqs = {
        JoinEquality(*rels[0], *rels[1], q.equalities)};
    fdb::FPlanSearchResult search = [&] {
      Tracer::Scope s(tracer, "opt.fplan_search");
      return engine.OptimizeOnTree(product.tree(), eqs);
    }();
    Sample(out, "opt.fplan_states",
           static_cast<double>(search.states_explored));
    Sample(out, "core.op_steps", static_cast<double>(search.plan.steps.size()));
    ReplayPlan(product, search.plan, tracer);
  }
  for (const PlanStep& step : OneStepPerOperator(full, keep)) {
    Tracer::Scope s(tracer, OpSpanName(step.kind));
    fdb::ExecuteStep(full, step);
  }

  std::string signature;
  {
    Tracer::Scope s(tracer, "serve.normalize");
    signature = fdb::NormalizeSql(sql, db.catalog());
  }
  fdb::PlanCache cache(4);
  {
    Tracer::Scope s(tracer, "serve.plan_cache_lookup");
    cache.Lookup(signature, db.version());
  }
  fdb::FdbResult res{vis, fdb::FPlan{}, 0.0, 0.0, {}, {}};
  Tracer::Scope s(tracer, "serve.render");
  fdb::RenderResult(db, res);
}

void ServeProbe(fdb::Database& db, const std::vector<std::string>& statements,
                Output* out) {
  fdb::ServeOptions opts;
  opts.num_workers = 2;
  fdb::QueryServer server(&db, opts);
  constexpr int kClients = 2, kPerClient = 8;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        server.Query(statements[static_cast<size_t>(c + i) % statements.size()]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out->stats_exposition = server.MetricsExposition();
}

}  // namespace perfbench
