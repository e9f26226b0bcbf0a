#include "query/batch.h"

#include <memory>
#include <utility>

#include "common/stopwatch.h"
#include "query/parser.h"
#include "query/planner.h"

namespace netout {

BatchRunner::BatchRunner(HinPtr hin, const EngineOptions& engine_options)
    : hin_(std::move(hin)), options_(engine_options) {}

void BatchRunner::SetSnapshot(HinPtr hin) { hin_ = std::move(hin); }

std::vector<BatchOutcome> BatchRunner::Run(
    const std::vector<std::string>& queries) {
  std::vector<BatchQuery> batch;
  batch.reserve(queries.size());
  for (const std::string& text : queries) {
    batch.push_back(BatchQuery{text, nullptr});
  }
  return Run(batch);
}

std::vector<BatchOutcome> BatchRunner::Run(
    const std::vector<BatchQuery>& queries) {
  std::vector<BatchOutcome> outcomes(queries.size());
  if (queries.empty()) return outcomes;
  const HinPtr& hin = hin_;
  const EngineOptions& options = options_;

  // Parse and analyze every query up front; failures are isolated here
  // and never enter the plan. Prepared plans live in a pre-reserved
  // vector because the planner borrows them by pointer.
  struct Prepared {
    std::size_t input_index = 0;
    QueryPlan plan;
    std::int64_t parse_nanos = 0;
    std::int64_t analyze_nanos = 0;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Prepared p;
    p.input_index = i;
    Stopwatch parse_watch;
    Result<QueryAst> ast = ParseQuery(queries[i].text);
    p.parse_nanos = parse_watch.ElapsedNanos();
    if (!ast.ok()) {
      outcomes[i].status = ast.status();
      continue;
    }
    Stopwatch analyze_watch;
    Result<QueryPlan> plan =
        AnalyzeQuery(*hin, ast.value(), options.analyzer);
    p.analyze_nanos = analyze_watch.ElapsedNanos();
    if (!plan.ok()) {
      outcomes[i].status = plan.status();
      continue;
    }
    p.plan = std::move(plan).value();
    prepared.push_back(std::move(p));
  }
  if (prepared.empty()) return outcomes;

  // Per-query control tokens (unique_ptr: the token's atomics make it
  // non-movable), arming the engine-wide limits and chaining the
  // caller's cancel handle. A query with neither gets a null pointer so
  // its operators keep the zero-overhead no-token path.
  std::vector<std::unique_ptr<CancellationToken>> tokens;
  std::vector<const CancellationToken*> token_ptrs;
  tokens.reserve(prepared.size());
  token_ptrs.reserve(prepared.size());
  for (const Prepared& p : prepared) {
    const CancellationToken* external = queries[p.input_index].cancel;
    tokens.push_back(std::make_unique<CancellationToken>(
        options.exec.timeout_millis, options.exec.memory_budget_bytes,
        external));
    token_ptrs.push_back(tokens.back()->has_limits() || external != nullptr
                             ? tokens.back().get()
                             : nullptr);
  }

  // One planner over the whole workload: this is where cross-query
  // sharing happens (identical sets, conditions, features and common
  // prefixes collapse to single ops). Query k of the plan is prepared[k].
  Planner planner(*hin, PlannerOptions{options.exec.plan_cse,
                                       options.exec.cost_based_order,
                                       options.index});
  for (const Prepared& p : prepared) planner.AddQuery(p.plan);
  const PhysicalPlan plan = planner.Take();

  Executor executor(hin, options.index, options.exec);
  std::vector<BatchOutcome> planned(prepared.size());
  RunPhysicalPlan(plan, token_ptrs, executor, planned);
  for (std::size_t k = 0; k < prepared.size(); ++k) {
    BatchOutcome& outcome = outcomes[prepared[k].input_index];
    outcome = std::move(planned[k]);
    if (!outcome.status.ok()) continue;
    QueryExecStats& stats = outcome.result.stats;
    stats.stages.parse_nanos = prepared[k].parse_nanos;
    stats.stages.analyze_nanos = prepared[k].analyze_nanos;
    // No end-to-end clock exists for one query of a shared DAG; report
    // the work it consumed instead.
    stats.total_nanos = prepared[k].parse_nanos + prepared[k].analyze_nanos;
    for (const PlanOpInfo& op : outcome.result.plan_ops) {
      if (op.executed) stats.total_nanos += op.wall_nanos;
    }
  }
  return outcomes;
}

}  // namespace netout
