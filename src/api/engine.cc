#include "api/engine.h"

#include "common/timer.h"
#include "sql/parser.h"

namespace fdb {

FTreeSearchResult Engine::OptimizeFlat(const Query& q) {
  QueryInfo info = AnalyzeQuery(db_->catalog(), q);
  return FindOptimalFTree(info, solver_);
}

FdbResult Engine::EvaluateFlat(const Query& q,
                               const FTreeSearchResult* pretree,
                               QueryTrace* trace) {
  QueryInfo info = AnalyzeQuery(db_->catalog(), q);

  Timer opt_timer;
  FTreeSearchResult searched;
  if (pretree == nullptr) {
    QueryTrace::Scope span(trace, "f-tree-search");
    searched = FindOptimalFTree(info, solver_);
  }
  const FTreeSearchResult& t = pretree != nullptr ? *pretree : searched;
  FdbResult res{FRep{FTree{}}, FPlan{}, 0.0, 0.0, {}, {}};
  res.optimize_seconds = opt_timer.Seconds();

  Timer eval_timer;
  std::vector<const Relation*> rels = db_->RelationPtrs(q.rels);
  FRep rep = GroundQuery(t.tree, rels, q.const_preds, trace);
  if (info.projection != info.all_attrs) {
    QueryTrace::Scope span(trace, "project");
    rep = Project(rep, info.projection);
    span.SetBytes(rep.MemoryBytes());
    res.plan.steps.push_back(PlanStep::MakeProject(info.projection));
  }
  res.evaluate_seconds = eval_timer.Seconds();
  res.plan.result_s = rep.tree().Cost(solver_);
  res.rep = std::move(rep);
  return res;
}

FPlanSearchResult Engine::OptimizeOnTree(
    const FTree& tree, const std::vector<std::pair<AttrId, AttrId>>& eqs) {
  FPlanSearchOptions so = opts_.search;
  so.mode = opts_.cost_mode;
  return opts_.greedy_optimizer ? GreedyFPlan(tree, eqs, solver_, so)
                                : FindOptimalFPlan(tree, eqs, solver_, so);
}

FdbResult Engine::EvaluateOnFRep(
    const FRep& in, const std::vector<std::pair<AttrId, AttrId>>& eqs,
    const std::vector<ConstPred>& preds, AttrSet projection) {
  FdbResult res{FRep{FTree{}}, FPlan{}, 0.0, 0.0, {}, {}};
  FPlan full;

  // Constant selections are cheapest and run first (§4). They can change
  // the tree — sigma_{A=c} makes A's node constant and normalisation moves
  // it — so the plan is searched on the selected tree, not the input's.
  Timer select_timer;
  FRep selected{FTree{}};
  const FRep* base = &in;  // no copy of the input when nothing selects
  for (const ConstPred& p : preds) {
    full.steps.push_back(PlanStep::MakeSelectConst(p.attr, p.op, p.value));
    selected = ExecuteStep(*base, full.steps.back());
    base = &selected;
  }
  const double select_seconds = select_timer.Seconds();

  Timer opt_timer;
  FPlanSearchResult search = OptimizeOnTree(base->tree(), eqs);
  res.optimize_seconds = opt_timer.Seconds();

  FPlan rest;
  rest.steps = search.plan.steps;
  if (!projection.Empty()) {
    rest.steps.push_back(PlanStep::MakeProject(projection));
  }
  full.steps.insert(full.steps.end(), rest.steps.begin(), rest.steps.end());
  full.cost_max_s = search.plan.cost_max_s;
  full.result_s = search.plan.result_s;

  Timer eval_timer;
  res.rep = ExecutePlan(*base, rest);
  res.evaluate_seconds = select_seconds + eval_timer.Seconds();
  res.plan = std::move(full);
  return res;
}

FdbResult Engine::JoinFactorised(
    const FRep& lhs, const FRep& rhs,
    const std::vector<std::pair<AttrId, AttrId>>& eqs) {
  FRep shifted = rhs;
  shifted.tree().ShiftRelIndices(lhs.tree().MaxRelIndex() + 1);
  FRep prod = Product(lhs, shifted);
  return EvaluateOnFRep(prod, eqs);
}

AggregateResult Engine::ExecuteAggregate(const Query& q,
                                         const FTreeSearchResult* pretree,
                                         QueryTrace* trace) {
  AnalyzeQuery(db_->catalog(), q);  // validates group_by/aggregates early

  // Aggregates range over the distinct tuples of the join result taken
  // over all attributes, so the SPJ part runs without projection.
  FdbResult base = EvaluateFlat(q.SpjCore(), pretree, trace);

  AggregateResult res;
  res.plan = std::move(base.plan);
  res.optimize_seconds = base.optimize_seconds;

  Timer agg_timer;
  {
    QueryTrace::Scope span(trace, "restructure-aggregate");
    res.grouped = GroupByAggregate(base.rep, q.group_by, q.aggregates,
                                   &solver_, &res.plan);
    span.SetBytes(res.grouped.rep.MemoryBytes());
  }
  {
    QueryTrace::Scope span(trace, "materialize-groups");
    res.table = res.grouped.Materialize(opts_.enumerate);
    res.table.SortByKey();
    span.SetRows(res.table.num_rows);
  }
  res.evaluate_seconds = base.evaluate_seconds + agg_timer.Seconds();
  return res;
}

AggregateResult Engine::ExecuteAggregate(const std::string& sql_text) {
  return ExecuteAggregate(Parse(sql_text));
}

Query Engine::Parse(const std::string& sql_text) {
  return ParseSql(sql_text, db_->catalog(), &db_->dict());
}

FdbResult Engine::ExecuteTraced(const Query& q, QueryTrace* trace,
                                const FTreeSearchResult* pretree,
                                const EnumKernel* kernel) {
  if (q.IsAggregate()) {
    AggregateResult ar = ExecuteAggregate(q, pretree, trace);
    FdbResult res{std::move(ar.grouped.rep), std::move(ar.plan),
                  ar.optimize_seconds, ar.evaluate_seconds, {}, {}};
    res.aggregate = std::move(ar.table);
    return res;
  }
  FdbResult res = EvaluateFlat(q, pretree, trace);
  if (trace != nullptr) {
    // The SPJ result of plain Execute stays factorised (materialisation is
    // the caller's call); EXPLAIN ANALYZE times the full pipeline, so
    // enumerate the visible relation for the morsel-plan/enumerate spans.
    MaterializeResult(res, kernel, trace);
  }
  return res;
}

FdbResult Engine::Execute(const std::string& sql_text) {
  if (IsExplainAnalyze(sql_text)) {
    QueryTrace trace;
    FdbResult res{FRep{FTree{}}, FPlan{}, 0.0, 0.0, {}, {}};
    {
      QueryTrace::Scope root(&trace, "query");
      Query q;
      {
        QueryTrace::Scope span(&trace, "parse");
        q = Parse(sql_text);
      }
      res = ExecuteTraced(q, &trace);
    }
    res.explain = trace.Render();
    return res;
  }
  Query q = Parse(sql_text);
  if (q.IsAggregate()) {
    AggregateResult ar = ExecuteAggregate(q);
    FdbResult res{std::move(ar.grouped.rep), std::move(ar.plan),
                  ar.optimize_seconds, ar.evaluate_seconds, {}, {}};
    res.aggregate = std::move(ar.table);
    return res;
  }
  return EvaluateFlat(q);
}

RdbResult Engine::ExecuteRdb(const Query& q, const RdbOptions& opts) const {
  return RdbEvaluate(db_->catalog(), db_->RelationPtrs(q.rels), q, opts);
}

VdbResult Engine::ExecuteVdb(const Query& q, const VdbOptions& opts) const {
  return VdbEvaluate(db_->catalog(), db_->RelationPtrs(q.rels), q, opts);
}

}  // namespace fdb
