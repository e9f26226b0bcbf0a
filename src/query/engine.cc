#include "query/engine.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "measure/explain.h"
#include "measure/scores.h"
#include "metapath/evaluator.h"
#include "query/parser.h"
#include "query/physical_plan.h"
#include "query/planner.h"

namespace netout {

Engine::Engine(HinPtr hin, const EngineOptions& options)
    : hin_(std::move(hin)),
      options_(options),
      executor_(hin_, options.index, options.exec) {}

Result<QueryPlan> Engine::Prepare(std::string_view query_text) const {
  NETOUT_ASSIGN_OR_RETURN(QueryAst ast, ParseQuery(query_text));
  return AnalyzeQuery(*hin_, ast, options_.analyzer);
}

Result<QueryResult> Engine::Execute(std::string_view query_text) {
  return Execute(query_text, nullptr);
}

Result<QueryResult> Engine::Execute(std::string_view query_text,
                                    const CancellationToken* cancel) {
  Stopwatch parse_watch;
  NETOUT_ASSIGN_OR_RETURN(QueryAst ast, ParseQuery(query_text));
  const std::int64_t parse_nanos = parse_watch.ElapsedNanos();
  Stopwatch analyze_watch;
  NETOUT_ASSIGN_OR_RETURN(QueryPlan plan,
                          AnalyzeQuery(*hin_, ast, options_.analyzer));
  const std::int64_t analyze_nanos = analyze_watch.ElapsedNanos();
  NETOUT_ASSIGN_OR_RETURN(QueryResult result, executor_.Run(plan, cancel));
  result.stats.stages.parse_nanos = parse_nanos;
  result.stats.stages.analyze_nanos = analyze_nanos;
  result.stats.total_nanos += parse_nanos + analyze_nanos;
  return result;
}

Result<QueryResult> Engine::ExecutePlan(const QueryPlan& plan,
                                        const CancellationToken* cancel) {
  return executor_.Run(plan, cancel);
}

Result<std::vector<VertexRef>> Engine::CandidateVertices(
    std::string_view query_text) {
  NETOUT_ASSIGN_OR_RETURN(QueryPlan plan, Prepare(query_text));
  return executor_.EvaluateSet(plan.candidate);
}

namespace {

void DescribeSet(const Hin& hin, const ResolvedSet& set, std::string* out,
                 int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (set.kind) {
    case SetExpr::Kind::kPrimary: {
      const ResolvedPrimary& primary = set.primary;
      *out += pad;
      if (primary.anchor.has_value()) {
        *out += "neighborhood of " +
                hin.schema().VertexTypeName(primary.anchor->type) + "{\"" +
                hin.VertexName(*primary.anchor) + "\"} via " +
                primary.hops.ToString(hin.schema());
      } else {
        *out += "all vertices of type " +
                hin.schema().VertexTypeName(primary.element_type);
      }
      if (primary.where != nullptr) {
        *out += " WHERE " + FormatWhere(hin, *primary.where);
      }
      *out += "\n";
      return;
    }
    case SetExpr::Kind::kUnion:
      *out += pad + "UNION of:\n";
      break;
    case SetExpr::Kind::kIntersect:
      *out += pad + "INTERSECT of:\n";
      break;
    case SetExpr::Kind::kExcept:
      *out += pad + "EXCEPT (left minus right):\n";
      break;
  }
  DescribeSet(hin, *set.lhs, out, indent + 1);
  DescribeSet(hin, *set.rhs, out, indent + 1);
}

}  // namespace

std::string Engine::DescribePlan(const QueryPlan& plan) const {
  std::string out;
  out += "candidate set (type " +
         hin_->schema().VertexTypeName(plan.subject_type) + "):\n";
  DescribeSet(*hin_, plan.candidate, &out, 1);
  if (plan.reference.has_value()) {
    out += "reference set:\n";
    DescribeSet(*hin_, *plan.reference, &out, 1);
  } else {
    out += "reference set: same as candidate set\n";
  }
  out += "judged by:\n";
  for (const WeightedMetaPath& feature : plan.features) {
    out += "  " + feature.path.ToString(hin_->schema()) + " (weight " +
           FormatDouble(feature.weight, 2) + ")\n";
  }
  const char* combine_name = "weighted average";
  if (plan.combine == CombineMode::kRankAverage) {
    combine_name = "rank average";
  } else if (plan.combine == CombineMode::kJointConnectivity) {
    combine_name = "joint connectivity";
  }
  out += std::string("measure: ") + OutlierMeasureToString(plan.measure) +
         ", combine: " + combine_name +
         ", top-k: " + std::to_string(plan.top_k) + "\n";
  out += std::string("execution: ") +
         (options_.index != nullptr ? "indexed (pre-materialized lookups "
                                      "with traversal fallback)"
                                    : "baseline traversal") +
         "\n";
  return out;
}

Result<std::string> Engine::DescribePlan(std::string_view query_text) const {
  NETOUT_ASSIGN_OR_RETURN(QueryPlan plan, Prepare(query_text));
  return DescribePlan(plan);
}

std::string Engine::ExplainPlan(const QueryPlan& plan) const {
  Planner planner(*hin_,
                  PlannerOptions{options_.exec.plan_cse,
                                 options_.exec.cost_based_order,
                                 options_.index});
  const std::size_t query_index = planner.AddQuery(plan);
  const PhysicalPlan physical = planner.Take();
  const std::vector<PlanOpInfo> infos = DescribePhysicalPlan(
      *hin_, physical, physical.queries[query_index].ops);
  return RenderPlan(infos, /*include_runtime=*/false);
}

Result<std::string> Engine::ExplainPlan(std::string_view query_text) const {
  NETOUT_ASSIGN_OR_RETURN(QueryPlan plan, Prepare(query_text));
  return ExplainPlan(plan);
}

Result<std::vector<std::string>> Engine::SuggestFeaturePaths(
    std::string_view query_text, std::size_t max_hops) const {
  NETOUT_ASSIGN_OR_RETURN(QueryPlan plan, Prepare(query_text));
  const Schema& schema = hin_->schema();

  std::vector<std::string> used;
  for (const WeightedMetaPath& feature : plan.features) {
    used.push_back(feature.path.ToString(schema));
  }

  // Breadth-first enumeration of step sequences from the subject type.
  std::vector<std::string> suggestions;
  std::vector<std::vector<EdgeStep>> frontier = {{}};
  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    std::vector<std::vector<EdgeStep>> next;
    for (const std::vector<EdgeStep>& prefix : frontier) {
      const TypeId from = prefix.empty()
                              ? plan.subject_type
                              : schema.StepTarget(prefix.back());
      for (const EdgeStep& step : schema.StepsFrom(from)) {
        std::vector<EdgeStep> extended = prefix;
        extended.push_back(step);
        NETOUT_ASSIGN_OR_RETURN(MetaPath path,
                                MetaPath::FromSteps(schema, extended));
        const std::string text = path.ToString(schema);
        if (std::find(used.begin(), used.end(), text) == used.end() &&
            std::find(suggestions.begin(), suggestions.end(), text) ==
                suggestions.end()) {
          suggestions.push_back(text);
        }
        next.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
  }
  return suggestions;
}

Result<std::vector<Engine::PathExplanation>> Engine::Explain(
    std::string_view query_text, std::string_view candidate_name,
    std::size_t top_m) {
  NETOUT_ASSIGN_OR_RETURN(QueryPlan plan, Prepare(query_text));
  NETOUT_ASSIGN_OR_RETURN(VertexRef candidate,
                          hin_->FindVertex(plan.subject_type,
                                           candidate_name));
  NETOUT_ASSIGN_OR_RETURN(std::vector<VertexRef> candidates,
                          executor_.EvaluateSet(plan.candidate));
  if (!std::binary_search(candidates.begin(), candidates.end(), candidate)) {
    // Not `"'" + std::string(...)`: GCC 12 at -O3 raises a false
    // -Wrestrict on that operator+ overload.
    return Status::NotFound(std::string("'").append(candidate_name).append(
        "' is not in the query's candidate set"));
  }
  std::vector<VertexRef> references;
  if (plan.reference.has_value()) {
    NETOUT_ASSIGN_OR_RETURN(references,
                            executor_.EvaluateSet(*plan.reference));
  } else {
    references = candidates;
  }
  if (references.empty()) {
    return Status::FailedPrecondition("the reference set is empty");
  }

  NeighborVectorEvaluator evaluator(hin_, options_.index);
  std::vector<PathExplanation> explanations;
  for (const WeightedMetaPath& feature : plan.features) {
    NETOUT_ASSIGN_OR_RETURN(
        SparseVector phi, evaluator.Evaluate(candidate, feature.path,
                                             nullptr));
    std::vector<SparseVector> reference_vectors;
    reference_vectors.reserve(references.size());
    for (const VertexRef& ref : references) {
      NETOUT_ASSIGN_OR_RETURN(
          SparseVector vec, evaluator.Evaluate(ref, feature.path, nullptr));
      reference_vectors.push_back(std::move(vec));
    }
    const SparseVector reference_sum = SumVectors(reference_vectors);
    const OutlierExplanation raw =
        ExplainNetOut(phi.View(), reference_sum.View(), top_m);

    PathExplanation explanation;
    explanation.path_text = feature.path.ToString(hin_->schema());
    explanation.score = raw.score;
    const TypeId dim_type = feature.path.target_type();
    auto convert = [&](const std::vector<ExplanationTerm>& terms) {
      std::vector<PathExplanation::Term> named;
      named.reserve(terms.size());
      for (const ExplanationTerm& term : terms) {
        named.push_back(PathExplanation::Term{
            hin_->VertexName(VertexRef{dim_type, term.dimension}),
            term.candidate_count, term.reference_mass});
      }
      return named;
    };
    explanation.distinctive = convert(raw.distinctive);
    explanation.missing = convert(raw.missing);
    explanations.push_back(std::move(explanation));
  }
  return explanations;
}

}  // namespace netout
