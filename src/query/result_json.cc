#include "query/result_json.h"

#include "common/json.h"

namespace netout {

std::string QueryResultToJson(const Hin& hin, const QueryResult& result,
                              bool pretty) {
  JsonWriter json(pretty);
  json.BeginObject();

  json.Key("outliers");
  json.BeginArray();
  for (std::size_t i = 0; i < result.outliers.size(); ++i) {
    const OutlierEntry& entry = result.outliers[i];
    json.BeginObject();
    json.Key("rank");
    json.Uint(i + 1);
    json.Key("name");
    json.String(entry.name);
    json.Key("type");
    json.String(hin.schema().VertexTypeName(entry.vertex.type));
    json.Key("score");
    json.Number(entry.score);
    json.Key("zero_visibility");
    json.Bool(entry.zero_visibility);
    json.EndObject();
  }
  json.EndArray();

  // Degradation marker: consumers must check this before trusting the
  // ranking — a degraded result was cut short by a deadline, cancel,
  // memory budget, or progressive callback (`stop_reason` says which)
  // and may be incomplete or extrapolated.
  json.Key("degraded");
  json.Bool(result.degraded);
  json.Key("stop_reason");
  json.String(StopReasonToString(result.stop_reason));

  json.Key("stats");
  json.BeginObject();
  json.Key("candidates");
  json.Uint(result.stats.candidate_count);
  json.Key("references");
  json.Uint(result.stats.reference_count);
  json.Key("total_ms");
  json.Number(static_cast<double>(result.stats.total_nanos) / 1e6);
  json.Key("not_indexed_ms");
  json.Number(result.stats.eval.not_indexed.TotalMillis());
  json.Key("indexed_ms");
  json.Number(result.stats.eval.indexed.TotalMillis());
  json.Key("scoring_ms");
  json.Number(static_cast<double>(result.stats.stages.score_nanos) / 1e6);
  json.Key("index_hits");
  json.Uint(result.stats.eval.index_hits);
  json.Key("index_misses");
  json.Uint(result.stats.eval.index_misses);
  // Plan-level reuse counters: vectors this query computed vs. vectors
  // served from a shared materialization node (common-subpath
  // elimination, batch plan merging).
  json.Key("vectors_materialized");
  json.Uint(result.stats.vectors_materialized);
  json.Key("vectors_reused");
  json.Uint(result.stats.vectors_reused);
  // Graph snapshot epoch the query ran against (0 = never-mutated root).
  // Lives under "stats", never inside "outliers" — the byte-range
  // equivalence gates compare the outlier array across epochs.
  json.Key("graph_epoch");
  json.Uint(result.stats.graph_epoch);
  // Disjoint wall-clock spans of the pipeline (StageTimings); parse and
  // analyze are zero unless the result came from Engine::Execute.
  json.Key("stages");
  json.BeginObject();
  const StageTimings& stages = result.stats.stages;
  json.Key("parse_ms");
  json.Number(static_cast<double>(stages.parse_nanos) / 1e6);
  json.Key("analyze_ms");
  json.Number(static_cast<double>(stages.analyze_nanos) / 1e6);
  json.Key("materialize_ms");
  json.Number(static_cast<double>(stages.materialize_nanos) / 1e6);
  json.Key("score_ms");
  json.Number(static_cast<double>(stages.score_nanos) / 1e6);
  json.Key("topk_ms");
  json.Number(static_cast<double>(stages.topk_nanos) / 1e6);
  json.EndObject();
  json.EndObject();

  // The executed physical plan, one entry per operator (EXPLAIN PLAN as
  // data); absent when the result did not come from plan execution.
  if (!result.plan_ops.empty()) {
    json.Key("plan");
    json.BeginArray();
    for (const PlanOpInfo& op : result.plan_ops) {
      json.BeginObject();
      json.Key("id");
      json.Uint(op.id);
      json.Key("op");
      json.String(op.label);
      json.Key("detail");
      json.String(op.detail);
      json.Key("inputs");
      json.BeginArray();
      for (const std::size_t input : op.inputs) json.Uint(input);
      json.EndArray();
      if (!op.index_mode.empty()) {
        json.Key("index_mode");
        json.String(op.index_mode);
      }
      json.Key("reuse_count");
      json.Uint(op.reuse_count);
      json.Key("executed");
      json.Bool(op.executed);
      if (op.executed) {
        json.Key("wall_ms");
        json.Number(static_cast<double>(op.wall_nanos) / 1e6);
        json.Key("rows");
        json.Uint(op.rows);
        json.Key("vectors_materialized");
        json.Uint(op.vectors_materialized);
        json.Key("vectors_reused");
        json.Uint(op.vectors_reused);
      }
      json.EndObject();
    }
    json.EndArray();
  }

  json.EndObject();
  return std::move(json).Take();
}

}  // namespace netout
