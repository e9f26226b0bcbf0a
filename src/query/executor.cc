#include "query/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "measure/topk.h"
#include "query/planner.h"

namespace netout {
namespace {

std::vector<LocalId> SetUnion(const std::vector<LocalId>& a,
                              const std::vector<LocalId>& b) {
  std::vector<LocalId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<LocalId> SetIntersection(const std::vector<LocalId>& a,
                                     const std::vector<LocalId>& b) {
  std::vector<LocalId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<LocalId> SetDifference(const std::vector<LocalId>& a,
                                   const std::vector<LocalId>& b) {
  std::vector<LocalId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool Compare(double lhs, CmpOp op, double rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

/// Assigns each WHERE atom its pre-order index — the order the planner
/// listed the condition materializations in kFilter's inputs[1..].
void MapAtoms(const ResolvedWhere& where, std::size_t* next,
              std::unordered_map<const ResolvedWhere*, std::size_t>* map) {
  switch (where.kind) {
    case WhereExpr::Kind::kAtom:
      (*map)[&where] = (*next)++;
      return;
    case WhereExpr::Kind::kNot:
      MapAtoms(*where.lhs, next, map);
      return;
    case WhereExpr::Kind::kAnd:
    case WhereExpr::Kind::kOr:
      MapAtoms(*where.lhs, next, map);
      MapAtoms(*where.rhs, next, map);
      return;
  }
}

/// Evaluates the WHERE tree for the member at position `j` of the base
/// member list, reading each atom's COUNT from its pre-materialized
/// vector batch (the batched replacement for the old per-member
/// traversals).
bool EvalPredicate(
    const ResolvedWhere& where, std::size_t j, const PhysicalOp& op,
    std::span<const OpOutput> slots,
    const std::unordered_map<const ResolvedWhere*, std::size_t>& atoms) {
  switch (where.kind) {
    case WhereExpr::Kind::kAtom: {
      const OpOutput& mat = slots[op.inputs[1 + atoms.at(&where)]];
      return Compare(static_cast<double>(mat.vectors[j].nnz()),
                     where.atom.op, where.atom.value);
    }
    case WhereExpr::Kind::kNot:
      return !EvalPredicate(*where.lhs, j, op, slots, atoms);
    case WhereExpr::Kind::kAnd:
      return EvalPredicate(*where.lhs, j, op, slots, atoms) &&
             EvalPredicate(*where.rhs, j, op, slots, atoms);
    case WhereExpr::Kind::kOr:
      return EvalPredicate(*where.lhs, j, op, slots, atoms) ||
             EvalPredicate(*where.rhs, j, op, slots, atoms);
  }
  return false;
}

/// Position of `id` in the sorted member list `all`.
std::size_t MemberPos(const std::vector<LocalId>& all, LocalId id) {
  const auto it = std::lower_bound(all.begin(), all.end(), id);
  return static_cast<std::size_t>(it - all.begin());
}

}  // namespace

Executor::Executor(HinPtr hin, const MetaPathIndex* index,
                   const ExecOptions& options)
    : hin_(std::move(hin)),
      index_(index),
      options_(options),
      evaluator_(hin_, index) {
  NETOUT_CHECK(hin_ != nullptr);
}

Executor::~Executor() = default;

void Executor::SetStopToken(const CancellationToken* token) {
  stop_token_ = token;
  evaluator_.SetStopToken(token);
  for (const auto& shard : shard_evaluators_) shard->SetStopToken(token);
}

Status Executor::CheckConcurrentUse() const {
  if (options_.pool == nullptr || index_ == nullptr ||
      index_->SupportsConcurrentUse()) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "the attached index reports SupportsConcurrentUse() == false and "
      "cannot be shared by a thread pool's workers; run without a pool or "
      "use a concurrent-safe index");
}

template <typename Produce>
Result<std::vector<SparseVector>> Executor::MapSharded(
    std::size_t count, EvalStats* stats, const Produce& produce) {
  std::vector<SparseVector> vectors(count);
  const auto run_shard = [&](std::size_t begin, std::size_t end,
                             NeighborVectorEvaluator& evaluator,
                             EvalStats* shard_stats) -> Status {
    DenseAccumulator acc;
    for (std::size_t i = begin; i < end; ++i) {
      if (stop_token_ != nullptr && stop_token_->ShouldStop()) {
        return stop_token_->ToStatus();
      }
      NETOUT_ASSIGN_OR_RETURN(vectors[i],
                              produce(i, evaluator, acc, shard_stats));
      if (stop_token_ != nullptr) {
        stop_token_->ChargeBytes(vectors[i].MemoryBytes());
      }
    }
    return Status::OK();
  };
  const std::size_t shards =
      options_.pool == nullptr
          ? 1
          : std::min(options_.pool->num_threads(), count / kMinRowsPerShard);
  if (shards <= 1) {
    NETOUT_RETURN_IF_ERROR(run_shard(0, count, evaluator_, stats));
    return vectors;
  }

  for (std::size_t w = shard_evaluators_.size() + 1; w < shards; ++w) {
    shard_evaluators_.push_back(
        std::make_unique<NeighborVectorEvaluator>(hin_, index_));
    shard_evaluators_.back()->SetStopToken(stop_token_);
  }
  std::vector<EvalStats> shard_stats(shards);
  std::vector<Status> shard_status(shards);
  const std::size_t shard_size = (count + shards - 1) / shards;
  // A tripped token makes the group skip still-queued shards entirely
  // (their status slots stay OK with unwritten vectors); the token check
  // after the merge below keeps such holes from escaping as results.
  TaskGroup group(options_.pool, stop_token_);
  for (std::size_t w = 0; w < shards; ++w) {
    const std::size_t begin = w * shard_size;
    const std::size_t end = std::min(count, begin + shard_size);
    if (begin >= end) break;
    NeighborVectorEvaluator* evaluator =
        w == 0 ? &evaluator_ : shard_evaluators_[w - 1].get();
    group.Submit([&, w, begin, end, evaluator] {
      shard_status[w] = run_shard(begin, end, *evaluator, &shard_stats[w]);
    });
  }
  group.Wait();
  for (std::size_t w = 0; w < shards; ++w) {
    if (stats != nullptr) stats->MergeFrom(shard_stats[w]);
  }
  // Real errors win over stop statuses so the surfaced first error stays
  // independent of the shard count; only then does the stop surface.
  for (std::size_t w = 0; w < shards; ++w) {
    if (!shard_status[w].ok() && !IsStopStatus(shard_status[w])) {
      return shard_status[w];
    }
  }
  if (stop_token_ != nullptr && stop_token_->ShouldStop()) {
    return stop_token_->ToStatus();
  }
  return vectors;
}

Result<std::vector<SparseVector>> Executor::MaterializeVectors(
    TypeId subject_type, const MetaPath& path,
    const std::vector<LocalId>& members, EvalStats* stats) {
  return MapSharded(
      members.size(), stats,
      [&](std::size_t i, NeighborVectorEvaluator& evaluator,
          DenseAccumulator&, EvalStats* shard_stats) {
        return evaluator.Evaluate(VertexRef{subject_type, members[i]}, path,
                                  shard_stats);
      });
}

Status Executor::ExecuteOp(const PhysicalPlan& plan, std::size_t id,
                           std::span<OpOutput> slots,
                           PlanOpRuntime* runtime) {
  // Per-operator poll: the coarse boundary every op respects even when
  // its inner loops have no finer-grained polling of their own.
  if (stop_token_ != nullptr && stop_token_->ShouldStop()) {
    return stop_token_->ToStatus();
  }
  const PhysicalOp& op = plan.ops[id];
  OpOutput& out = slots[id];
  EvalStats* stats = &runtime->eval;
  Stopwatch watch;

  switch (op.kind) {
    case PhysOpKind::kEvalSet: {
      if (op.set_kind == SetExpr::Kind::kPrimary) {
        const ResolvedPrimary& primary = *op.primary;
        if (primary.anchor.has_value()) {
          if (primary.hops.length() == 0) {
            out.members.push_back(primary.anchor->local);
          } else {
            NETOUT_ASSIGN_OR_RETURN(
                SparseVector vec,
                evaluator_.Evaluate(*primary.anchor, primary.hops, stats));
            if (stop_token_ != nullptr) {
              stop_token_->ChargeBytes(vec.MemoryBytes());
            }
            out.members.assign(vec.indices().begin(), vec.indices().end());
          }
        } else {
          // All vertices of the element type.
          const std::size_t n = hin_->NumVertices(op.element_type);
          out.members.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            out.members[i] = static_cast<LocalId>(i);
          }
        }
      } else {
        const std::vector<LocalId>& lhs = slots[op.inputs[0]].members;
        const std::vector<LocalId>& rhs = slots[op.inputs[1]].members;
        switch (op.set_kind) {
          case SetExpr::Kind::kUnion:
            out.members = SetUnion(lhs, rhs);
            break;
          case SetExpr::Kind::kIntersect:
            out.members = SetIntersection(lhs, rhs);
            break;
          case SetExpr::Kind::kExcept:
            out.members = SetDifference(lhs, rhs);
            break;
          case SetExpr::Kind::kPrimary:
            return Status::Internal("unhandled set node kind");
        }
      }
      runtime->rows = out.members.size();
      break;
    }

    case PhysOpKind::kFilter: {
      const OpOutput& base = slots[op.inputs[0]];
      std::unordered_map<const ResolvedWhere*, std::size_t> atoms;
      std::size_t next = 0;
      MapAtoms(*op.where, &next, &atoms);
      out.members.reserve(base.members.size());
      for (std::size_t j = 0; j < base.members.size(); ++j) {
        if (EvalPredicate(*op.where, j, op,
                          std::span<const OpOutput>(slots.data(),
                                                    slots.size()),
                          atoms)) {
          out.members.push_back(base.members[j]);
        }
      }
      runtime->rows = out.members.size();
      break;
    }

    case PhysOpKind::kMaterialize: {
      if (op.matrix_input != kNoOp) {
        const RelationMatrix& matrix =
            slots[op.inputs[op.matrix_input]].matrix;
        if (op.extends) {
          // The cost-based split's apply step: every parent vector
          // multiplied through the materialized relation.
          const std::vector<SparseVector>& parents =
              slots[op.inputs[0]].vectors;
          NETOUT_ASSIGN_OR_RETURN(
              out.vectors,
              MapSharded(parents.size(), stats,
                         [&](std::size_t i, NeighborVectorEvaluator&,
                             DenseAccumulator& acc,
                             EvalStats*) -> Result<SparseVector> {
                           return MultiplyRowVector(parents[i], matrix,
                                                    &acc);
                         }));
        } else {
          // Whole-path matrix: a member's neighbor vector IS its row.
          const std::vector<LocalId>& members =
              slots[op.members_op].members;
          out.vectors.reserve(members.size());
          for (const LocalId member : members) {
            const SparseVecView row = matrix.Row(member);
            out.vectors.push_back(SparseVector::FromSorted(
                std::vector<LocalId>(row.indices.begin(), row.indices.end()),
                std::vector<double>(row.values.begin(), row.values.end())));
          }
        }
      } else if (op.extends) {
        // Shared-prefix reuse: extend the parent's vectors along the
        // remaining suffix.
        const std::vector<SparseVector>& parents =
            slots[op.inputs[0]].vectors;
        NETOUT_ASSIGN_OR_RETURN(
            out.vectors,
            MapSharded(parents.size(), stats,
                       [&](std::size_t i, NeighborVectorEvaluator& evaluator,
                           DenseAccumulator&, EvalStats* shard_stats) {
                         return evaluator.EvaluateFrontier(
                             parents[i], op.path, shard_stats);
                       }));
      } else {
        NETOUT_ASSIGN_OR_RETURN(
            out.vectors,
            MaterializeVectors(op.subject_type, op.path,
                               slots[op.members_op].members, stats));
      }
      runtime->rows = out.vectors.size();
      break;
    }

    case PhysOpKind::kBuildMatrix: {
      if (op.build_reverse) {
        NETOUT_ASSIGN_OR_RETURN(
            RelationMatrix reversed,
            RelationMatrix::Materialize(*hin_, op.path.Reverse(),
                                        stop_token_));
        out.matrix = reversed.Transpose();
      } else {
        NETOUT_ASSIGN_OR_RETURN(
            out.matrix,
            RelationMatrix::Materialize(*hin_, op.path, stop_token_));
      }
      if (stop_token_ != nullptr) {
        stop_token_->ChargeBytes(out.matrix.MemoryBytes());
      }
      runtime->rows = out.matrix.num_rows();
      break;
    }

    case PhysOpKind::kScore: {
      const std::vector<LocalId>& candidates = slots[op.inputs[0]].members;
      const std::vector<LocalId>& references = slots[op.inputs[1]].members;
      const OpOutput& mat = slots[op.inputs[2]];
      const std::vector<LocalId>& all =
          slots[plan.ops[op.inputs[2]].members_op].members;
      std::vector<SparseVecView> cand_views;
      cand_views.reserve(candidates.size());
      for (const LocalId vid : candidates) {
        cand_views.push_back(mat.vectors[MemberPos(all, vid)].View());
      }
      std::vector<SparseVecView> ref_views;
      ref_views.reserve(references.size());
      for (const LocalId vid : references) {
        ref_views.push_back(mat.vectors[MemberPos(all, vid)].View());
      }
      ScoreOptions score_options;
      score_options.measure = op.query->measure;
      score_options.pool = options_.pool;
      score_options.cancel = stop_token_;
      NETOUT_ASSIGN_OR_RETURN(
          out.scores,
          ComputeOutlierScores(std::span<const SparseVecView>(cand_views),
                               std::span<const SparseVecView>(ref_views),
                               score_options));
      runtime->rows = out.scores.size();
      break;
    }

    case PhysOpKind::kCombine: {
      const QueryPlan& query = *op.query;
      std::vector<double> weights;
      weights.reserve(query.features.size());
      for (const WeightedMetaPath& feature : query.features) {
        weights.push_back(feature.weight);
      }
      if (query.combine == CombineMode::kJointConnectivity) {
        const std::vector<LocalId>& candidates =
            slots[op.inputs[0]].members;
        const std::vector<LocalId>& references =
            slots[op.inputs[1]].members;
        std::vector<std::vector<SparseVecView>> cand_views;
        std::vector<std::vector<SparseVecView>> ref_views;
        for (std::size_t f = 2; f < op.inputs.size(); ++f) {
          const OpOutput& mat = slots[op.inputs[f]];
          const std::vector<LocalId>& all =
              slots[plan.ops[op.inputs[f]].members_op].members;
          std::vector<SparseVecView> cand;
          cand.reserve(candidates.size());
          for (const LocalId vid : candidates) {
            cand.push_back(mat.vectors[MemberPos(all, vid)].View());
          }
          std::vector<SparseVecView> ref;
          ref.reserve(references.size());
          for (const LocalId vid : references) {
            ref.push_back(mat.vectors[MemberPos(all, vid)].View());
          }
          cand_views.push_back(std::move(cand));
          ref_views.push_back(std::move(ref));
        }
        NETOUT_ASSIGN_OR_RETURN(
            out.scores,
            JointNetOutScores(cand_views, ref_views, weights, stop_token_));
      } else {
        std::vector<std::vector<double>> per_path_scores;
        per_path_scores.reserve(op.inputs.size());
        for (const std::size_t input : op.inputs) {
          per_path_scores.push_back(slots[input].scores);
        }
        NETOUT_ASSIGN_OR_RETURN(
            out.scores, CombineScores(per_path_scores, weights,
                                      query.combine, query.measure));
      }
      runtime->rows = out.scores.size();
      break;
    }

    case PhysOpKind::kTopK: {
      const QueryPlan& query = *op.query;
      const std::vector<double>& combined = slots[op.inputs[0]].scores;
      const std::vector<LocalId>& candidates = slots[op.inputs[1]].members;
      // zero_visibility[i]: candidate i has an empty vector under every
      // feature meta-path.
      std::vector<bool> zero_visibility(candidates.size(), true);
      for (std::size_t f = 2; f < op.inputs.size(); ++f) {
        const OpOutput& mat = slots[op.inputs[f]];
        const std::vector<LocalId>& all =
            slots[plan.ops[op.inputs[f]].members_op].members;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (!mat.vectors[MemberPos(all, candidates[i])].empty()) {
            zero_visibility[i] = false;
          }
        }
      }
      std::vector<std::size_t> eligible;
      eligible.reserve(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (options_.skip_zero_visibility && zero_visibility[i]) continue;
        eligible.push_back(i);
      }
      std::vector<double> eligible_scores;
      eligible_scores.reserve(eligible.size());
      for (const std::size_t i : eligible) {
        eligible_scores.push_back(combined[i]);
      }
      const bool smaller_first =
          CombinedSmallerIsMoreOutlying(query.combine, query.measure);
      const std::vector<std::size_t> top =
          SelectTopK(eligible_scores, query.top_k, smaller_first);
      out.outliers.reserve(top.size());
      for (const std::size_t rank : top) {
        const std::size_t i = eligible[rank];
        OutlierEntry entry;
        entry.vertex = VertexRef{query.subject_type, candidates[i]};
        entry.name = hin_->VertexName(entry.vertex);
        entry.score = combined[i];
        entry.zero_visibility = zero_visibility[i];
        out.outliers.push_back(std::move(entry));
      }
      runtime->rows = out.outliers.size();
      break;
    }
  }

  runtime->wall_nanos = watch.ElapsedNanos();
  runtime->executed = true;
  out.has_value = true;
  return Status::OK();
}

QueryResult Executor::AssembleResult(
    const PhysicalPlan& plan, std::size_t query_index,
    std::span<const OpOutput> slots,
    std::span<const PlanOpRuntime> runtimes) const {
  QueryResult result;
  const PlanQuery& entry = plan.queries[query_index];
  if (entry.topk_op != kNoOp && slots[entry.topk_op].has_value) {
    result.outliers = slots[entry.topk_op].outliers;
  }
  QueryExecStats& stats = result.stats;
  stats.candidate_count = slots[entry.candidate_op].members.size();
  stats.reference_count = slots[entry.reference_op].members.size();
  stats.graph_epoch = hin_->epoch();

  for (const std::size_t id : entry.ops) {
    const PlanOpRuntime& rt = runtimes[id];
    if (!rt.executed) continue;
    stats.eval.MergeFrom(rt.eval);
    switch (plan.ops[id].kind) {
      case PhysOpKind::kMaterialize:
        stats.stages.materialize_nanos += rt.wall_nanos;
        if (plan.ops[id].owner_query == query_index) {
          stats.vectors_materialized += rt.rows;
        }
        break;
      case PhysOpKind::kBuildMatrix:
        stats.stages.materialize_nanos += rt.wall_nanos;
        break;
      case PhysOpKind::kScore:
      case PhysOpKind::kCombine:
        stats.stages.score_nanos += rt.wall_nanos;
        break;
      case PhysOpKind::kTopK:
        stats.stages.topk_nanos += rt.wall_nanos;
        break;
      case PhysOpKind::kEvalSet:
      case PhysOpKind::kFilter:
        break;
    }
  }

  // Reuse accounting: each Filter atom and each TopK feature slot is one
  // demand for a vector batch. The first demand of a batch this query
  // owns is the materialization itself; every further demand — a repeated
  // feature/condition path, or a batch another query materialized — was
  // served from the shared node.
  std::unordered_set<std::size_t> seen;
  for (const std::size_t id : entry.ops) {
    const PhysicalOp& op = plan.ops[id];
    std::size_t first = 0;
    if (op.kind == PhysOpKind::kFilter) {
      first = 1;
    } else if (op.kind == PhysOpKind::kTopK) {
      first = 2;
    } else {
      continue;
    }
    for (std::size_t j = first; j < op.inputs.size(); ++j) {
      const std::size_t m = op.inputs[j];
      if (plan.ops[m].kind != PhysOpKind::kMaterialize) continue;
      if (!runtimes[m].executed) continue;
      const bool first_use = seen.insert(m).second;
      if (!first_use || plan.ops[m].owner_query != query_index) {
        stats.vectors_reused += runtimes[m].rows;
      }
    }
  }

  result.plan_ops = DescribePhysicalPlan(*hin_, plan, entry.ops);
  for (PlanOpInfo& info : result.plan_ops) {
    const std::size_t id = info.id;
    const PlanOpRuntime& rt = runtimes[id];
    info.executed = rt.executed;
    info.wall_nanos = rt.wall_nanos;
    info.rows = rt.rows;
    if (rt.executed && plan.ops[id].kind == PhysOpKind::kMaterialize) {
      info.vectors_materialized = rt.rows;
      info.vectors_reused = rt.rows * (info.reuse_count - 1);
    }
  }
  return result;
}

Result<QueryResult> Executor::Run(const QueryPlan& plan) {
  return Run(plan, nullptr);
}

Result<QueryResult> Executor::Run(const QueryPlan& plan,
                                  const CancellationToken* cancel) {
  // The run's control token: arms the configured deadline/budget now and
  // chains the caller's cancel handle. When nothing is armed, no token
  // is installed at all — every poll stays a null-pointer check and
  // execution is byte-for-byte the pre-limit code path.
  const CancellationToken control(options_.timeout_millis,
                                  options_.memory_budget_bytes, cancel);
  const CancellationToken* const token =
      control.has_limits() || cancel != nullptr ? &control : nullptr;

  Stopwatch total_watch;
  Planner planner(*hin_, PlannerOptions{options_.plan_cse,
                                        options_.cost_based_order, index_});
  planner.AddQuery(plan);
  const PhysicalPlan physical = planner.Take();
  BatchOutcome outcome;
  RunPhysicalPlan(physical, {&token, 1}, *this, {&outcome, 1});
  if (!outcome.status.ok()) return std::move(outcome.status);
  outcome.result.stats.total_nanos = total_watch.ElapsedNanos();
  return std::move(outcome.result);
}

Result<std::vector<VertexRef>> Executor::EvaluateSet(
    const ResolvedSet& set) {
  Planner planner(*hin_, PlannerOptions{options_.plan_cse,
                                        options_.cost_based_order, index_});
  const std::size_t query_index = planner.AddSet(set);
  const PhysicalPlan physical = planner.Take();
  const PlanQuery& entry = physical.queries[query_index];
  std::vector<OpOutput> slots(physical.ops.size());
  std::vector<PlanOpRuntime> runtimes(physical.ops.size());
  for (const std::size_t id : entry.set_phase_ops) {
    NETOUT_RETURN_IF_ERROR(
        ExecuteOp(physical, id, std::span<OpOutput>(slots), &runtimes[id]));
  }
  const std::vector<LocalId>& members = slots[entry.candidate_op].members;
  std::vector<VertexRef> out;
  out.reserve(members.size());
  for (const LocalId member : members) {
    out.push_back(VertexRef{set.element_type, member});
  }
  return out;
}

namespace {

/// One RunPhysicalPlan call: the op slots, what each op observed, and
/// the skip rule.
class PlanRun {
 public:
  PlanRun(const PhysicalPlan& plan,
          std::span<const CancellationToken* const> tokens,
          std::span<BatchOutcome> outcomes)
      : plan_(plan),
        tokens_(tokens),
        outcomes_(outcomes),
        slots_(plan.ops.size()),
        runtimes_(plan.ops.size()) {
    // The queries consuming each op, as one flat list:
    // consumers_[first_consumer_[id] .. first_consumer_[id + 1]).
    if (plan.queries.size() == 1) return;
    const std::size_t num_ops = plan.ops.size();
    first_consumer_.assign(num_ops + 1, 0);
    for (const PlanQuery& entry : plan.queries) {
      for (const std::size_t id : entry.ops) ++first_consumer_[id];
    }
    for (std::size_t id = 1; id <= num_ops; ++id) {
      first_consumer_[id] += first_consumer_[id - 1];
    }
    consumers_.resize(first_consumer_[num_ops]);
    for (std::size_t q = plan.queries.size(); q-- > 0;) {
      for (const std::size_t id : plan.queries[q].ops) {
        consumers_[--first_consumer_[id]] = q;
      }
    }
  }

  /// The skip rule: op `id` runs only while some query consuming it
  /// still needs it.
  bool IsLive(std::size_t id) const {
    for (const std::size_t q : ConsumersOf(id)) {
      if (Needs(q, id)) return true;
    }
    return false;
  }

  /// Runs op `id` on `executor`, under the token of its one consuming
  /// query; a shared op runs token-free.
  Status Execute(Executor& executor, std::size_t id, PlanOpRuntime* runtime) {
    const std::span<const std::size_t> consumers = ConsumersOf(id);
    executor.SetStopToken(consumers.size() == 1 ? tokens_[consumers[0]]
                                                : nullptr);
    Status status = executor.ExecuteOp(plan_, id, slots_, runtime);
    executor.SetStopToken(nullptr);
    return status;
  }

  /// A failed op retires every query consuming it; a query reports its
  /// first failure.
  void Fail(std::size_t id, const Status& status) {
    for (const std::size_t q : ConsumersOf(id)) {
      if (outcomes_[q].status.ok()) outcomes_[q].status = status;
    }
  }

  void Run(Executor& executor) {
    for (std::size_t id = 0; id < plan_.ops.size(); ++id) {
      if (!IsLive(id)) continue;
      const Status status = Execute(executor, id, &runtimes_[id]);
      if (!status.ok()) Fail(id, status);
    }
  }

  /// Resolves each query's outcome (order documented at RunPhysicalPlan).
  void Resolve(const Executor& executor) {
    const StopPolicy stop_policy = executor.options().stop_policy;
    for (std::size_t q = 0; q < outcomes_.size(); ++q) {
      BatchOutcome& outcome = outcomes_[q];
      const PlanQuery& entry = plan_.queries[q];
      const CancellationToken* token = tokens_[q];
      Status failure = std::exchange(outcome.status, Status::OK());
      if (failure.ok()) {
        if (!runtimes_[entry.candidate_op].executed ||
            !runtimes_[entry.reference_op].executed) {
          failure = StopStatus(token);
        } else if (slots_[entry.candidate_op].members.empty()) {
          // Nothing to rank: an empty result, not an error.
        } else if (slots_[entry.reference_op].members.empty()) {
          failure = Status::FailedPrecondition("the reference set is empty");
        } else if (!runtimes_[entry.topk_op].executed) {
          failure = StopStatus(token);
        }
      }
      const bool degrade = !failure.ok() && IsStopStatus(failure) &&
                           stop_policy == StopPolicy::kPartial;
      if (!failure.ok() && !degrade) {
        outcome.status = std::move(failure);
        continue;
      }
      outcome.result = executor.AssembleResult(plan_, q, slots_, runtimes_);
      if (degrade) {
        outcome.result.degraded = true;
        outcome.result.stop_reason =
            token != nullptr && token->stop_reason() != StopReason::kNone
                ? token->stop_reason()
                : StopReasonFromStatus(failure.code());
      }
    }
  }

 private:
  std::span<const std::size_t> ConsumersOf(std::size_t id) const {
    // A solo plan skips the flat list, so a solo run allocates no more
    // than its slots and runtimes.
    if (plan_.queries.size() == 1) {
      static constexpr std::size_t kSoloQuery[] = {0};
      const std::vector<std::size_t>& ops = plan_.queries[0].ops;
      return std::binary_search(ops.begin(), ops.end(), id)
                 ? std::span<const std::size_t>(kSoloQuery)
                 : std::span<const std::size_t>();
    }
    return std::span<const std::size_t>(consumers_).subspan(
        first_consumer_[id], first_consumer_[id + 1] - first_consumer_[id]);
  }

  /// Whether query `q` still needs op `id`: it has not failed or
  /// stopped, and `id` is in its set phase or neither of its sets came
  /// out empty.
  bool Needs(std::size_t q, std::size_t id) const {
    if (!outcomes_[q].status.ok()) return false;
    const CancellationToken* token = tokens_[q];
    if (token != nullptr && token->ShouldStop()) return false;
    const PlanQuery& entry = plan_.queries[q];
    if (std::binary_search(entry.set_phase_ops.begin(),
                           entry.set_phase_ops.end(), id)) {
      return true;
    }
    return !CameOutEmpty(entry.candidate_op) &&
           !CameOutEmpty(entry.reference_op);
  }

  bool CameOutEmpty(std::size_t id) const {
    return runtimes_[id].executed && runtimes_[id].rows == 0;
  }

  /// The status of a query whose remaining ops were skipped without a
  /// failure: only its token can have retired it.
  static Status StopStatus(const CancellationToken* token) {
    NETOUT_CHECK(token != nullptr && token->ShouldStop());
    return token->ToStatus();
  }

  const PhysicalPlan& plan_;
  std::span<const CancellationToken* const> tokens_;
  std::span<BatchOutcome> outcomes_;
  std::vector<OpOutput> slots_;
  std::vector<PlanOpRuntime> runtimes_;
  std::vector<std::size_t> first_consumer_;
  std::vector<std::size_t> consumers_;
};

}  // namespace

void RunPhysicalPlan(const PhysicalPlan& plan,
                     std::span<const CancellationToken* const> tokens,
                     Executor& executor, std::span<BatchOutcome> outcomes) {
  NETOUT_CHECK(tokens.size() == plan.queries.size());
  NETOUT_CHECK(outcomes.size() == plan.queries.size());
  const Status guard = executor.CheckConcurrentUse();
  if (!guard.ok()) {
    for (BatchOutcome& outcome : outcomes) outcome.status = guard;
    return;
  }
  PlanRun run(plan, tokens, outcomes);
  run.Run(executor);
  run.Resolve(executor);
}

}  // namespace netout
