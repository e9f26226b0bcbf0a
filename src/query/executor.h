#ifndef NETOUT_QUERY_EXECUTOR_H_
#define NETOUT_QUERY_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "graph/hin.h"
#include "metapath/evaluator.h"
#include "metapath/matrix.h"
#include "query/physical_plan.h"
#include "query/plan.h"

namespace netout {

class ThreadPool;

/// Fewest rows a Materialize hands each shard when it fans out over
/// ExecOptions::pool; a smaller operator runs on the calling thread.
/// EXPERIMENTS.md ("One schedule, one pool") records the sweep behind it.
inline constexpr std::size_t kMinRowsPerShard = 256;

/// One returned outlier.
struct OutlierEntry {
  VertexRef vertex;
  std::string name;
  double score = 0.0;
  /// True when the candidate had zero visibility under every feature
  /// meta-path (its normalized connectivity is undefined; NetOut reports
  /// it as maximally outlying with score 0 — see DESIGN.md).
  bool zero_visibility = false;
};

/// Wall-clock nanoseconds per pipeline stage of one query, end to end:
/// parse and analyze are filled by Engine::Execute (Prepare-only callers
/// see zeros), the rest by the executor by summing its physical
/// operators into the stage buckets (Materialize ops → materialize,
/// Score/Combine → score, TopK → topk). Unlike EvalStats (which slices
/// materialization by index hit/miss), these are disjoint wall-clock
/// spans whose sum approximates total_nanos, so speedups from
/// ExecOptions::pool show up directly per stage.
struct StageTimings {
  std::int64_t parse_nanos = 0;
  std::int64_t analyze_nanos = 0;
  std::int64_t materialize_nanos = 0;
  std::int64_t score_nanos = 0;
  std::int64_t topk_nanos = 0;

  void MergeFrom(const StageTimings& other) {
    parse_nanos += other.parse_nanos;
    analyze_nanos += other.analyze_nanos;
    materialize_nanos += other.materialize_nanos;
    score_nanos += other.score_nanos;
    topk_nanos += other.topk_nanos;
  }
};

/// Per-query execution statistics, matching the Figure 4 breakdown:
/// eval.not_indexed (traversal materialization), eval.indexed (index
/// lookups), stages.score_nanos (outlierness calculation), plus the
/// plan-level reuse counters that quantify common-subpath elimination.
struct QueryExecStats {
  EvalStats eval;
  StageTimings stages;
  std::int64_t total_nanos = 0;
  std::size_t candidate_count = 0;
  std::size_t reference_count = 0;
  /// Neighbor vectors this query actually computed (rows of the
  /// Materialize ops it owns) vs. vectors it consumed beyond their first
  /// materialization — i.e. served from a shared plan node instead of
  /// being recomputed. Without CSE, reused is 0 and materialized equals
  /// one batch per feature/condition path.
  std::size_t vectors_materialized = 0;
  std::size_t vectors_reused = 0;
  /// Epoch of the graph snapshot the query ran against (0 for a root
  /// graph that never saw a commit). Lets clients correlate an answer
  /// with the mutation stream that produced the snapshot.
  std::uint64_t graph_epoch = 0;

  void MergeFrom(const QueryExecStats& other) {
    eval.MergeFrom(other.eval);
    stages.MergeFrom(other.stages);
    total_nanos += other.total_nanos;
    candidate_count += other.candidate_count;
    reference_count += other.reference_count;
    vectors_materialized += other.vectors_materialized;
    vectors_reused += other.vectors_reused;
    // Merged stats describe one snapshot; keep the newest epoch seen.
    if (other.graph_epoch > graph_epoch) graph_epoch = other.graph_epoch;
  }
};

struct QueryResult {
  std::vector<OutlierEntry> outliers;
  QueryExecStats stats;
  /// Per-operator plan description with runtime observations, in op
  /// order; the input of EXPLAIN PLAN rendering and the "plan" array of
  /// the JSON result.
  std::vector<PlanOpInfo> plan_ops;
  /// True when a limit (deadline / cancel / budget) or a progressive
  /// callback stopped execution early and the result was assembled from
  /// the work completed so far (StopPolicy::kPartial): outliers may be
  /// incomplete, empty, or extrapolated estimates. `stop_reason` says
  /// which trigger fired; it is kNone iff `degraded` is false.
  bool degraded = false;
  StopReason stop_reason = StopReason::kNone;
};

/// Execution tuning knobs.
struct ExecOptions {
  /// Drop candidates whose feature vectors are all empty instead of
  /// reporting them as maximal outliers.
  bool skip_zero_visibility = false;

  /// Worker pool for large operators (borrowed, may be null; it must
  /// outlive every executor built with these options). Null runs every
  /// operator on the calling thread. With a pool, a Materialize fans its
  /// rows out in contiguous shards only when each shard gets at least
  /// kMinRowsPerShard rows, and PathSim, CosSim and the naive NetOut fan
  /// out over candidates from kMinFanOutPairs pairs on (measure/scores.h);
  /// factored and joint NetOut, LOF and custom measures stay serial.
  /// Results are bitwise identical with or without a pool: every row
  /// and every candidate is computed by the same serial code, only the
  /// outer loop is distributed. The attached index, if any, must report
  /// SupportsConcurrentUse() (all in-tree indexes do); RunPhysicalPlan
  /// rejects others with kFailedPrecondition.
  ThreadPool* pool = nullptr;

  /// Common-subpath elimination in the planner (see PlannerOptions).
  /// Scores are bitwise-identical either way; off re-materializes every
  /// path independently (the ablation baseline).
  bool plan_cse = true;

  /// Cost-based materialization ordering in the planner (see
  /// PlannerOptions::cost_based_order): estimated per-hop cardinalities
  /// pick a split point and evaluation direction for expensive
  /// unindexed materializations. Scores and top-k are bitwise-identical
  /// either way; off keeps the fixed left-to-right traversal (the
  /// ablation baseline).
  bool cost_based_order = true;

  /// Wall-clock deadline per Run(), in milliseconds, armed when the run
  /// starts; < 0 (default) disables it. 0 means "already expired" —
  /// useful to validate a query executes at all without paying for it.
  std::int64_t timeout_millis = -1;

  /// Per-query byte budget charged by materialization (every neighbor
  /// vector's MemoryBytes() as it is produced); 0 (default) disables it.
  /// Trips StopReason::kBudget when the cumulative total exceeds it.
  std::size_t memory_budget_bytes = 0;

  /// What happens when a limit trips (or an external token cancels):
  /// kError fails the run with the matching stop status
  /// (kDeadlineExceeded / kCancelled / kResourceExhausted); kPartial
  /// assembles a best-effort result from the operators that completed,
  /// marked QueryResult::degraded with the stop_reason.
  StopPolicy stop_policy = StopPolicy::kError;
};

/// The value one physical operator produced; which fields are populated
/// depends on the op kind (members for EvalSet/Filter, vectors for
/// Materialize, scores for Score/Combine, outliers for TopK).
struct OpOutput {
  std::vector<LocalId> members;
  std::vector<SparseVector> vectors;
  std::vector<double> scores;
  std::vector<OutlierEntry> outliers;
  RelationMatrix matrix;  // kBuildMatrix
  bool has_value = false;
};

/// What the executor observed while running one physical operator.
struct PlanOpRuntime {
  bool executed = false;
  std::int64_t wall_nanos = 0;
  std::size_t rows = 0;
  EvalStats eval;
};

/// Outcome of one query of a plan run: either `status` is non-OK or
/// `result` is valid. A solo query is a batch of one.
struct BatchOutcome {
  Status status;
  QueryResult result;
};

/// Executes resolved query plans against one network, optionally through
/// a pre-materialization index, by lowering them to a PhysicalPlan
/// (Planner) and interpreting the operator DAG. Owns traversal
/// workspaces; create one executor per thread.
class Executor {
 public:
  /// `index` may be null (baseline execution); it is borrowed.
  Executor(HinPtr hin, const MetaPathIndex* index,
           const ExecOptions& options = {});
  ~Executor();

  /// Runs a full outlier query: plan it alone, then RunPhysicalPlan it
  /// inline on this executor. The overload taking `cancel` (borrowed,
  /// may be null) chains an external cancel handle into the run's own
  /// control token — which also arms options.timeout_millis /
  /// memory_budget_bytes — so a caller-held token can stop the query
  /// from another thread.
  Result<QueryResult> Run(const QueryPlan& plan);
  Result<QueryResult> Run(const QueryPlan& plan,
                          const CancellationToken* cancel);

  /// Installs (or clears, with nullptr) the cooperative stop token
  /// polled per operator, per materialized vector, and inside the
  /// evaluators' chunk loops; also the budget sink for ChargeBytes.
  /// RunPhysicalPlan installs a query's token around each operator that
  /// query owns alone. `token` is borrowed and must outlive its
  /// installation.
  void SetStopToken(const CancellationToken* token);

  /// Evaluates just a set expression (used for SPM initialization-query
  /// candidate extraction and by tools). Members are returned sorted.
  Result<std::vector<VertexRef>> EvaluateSet(const ResolvedSet& set);

  /// The one concurrency guard: with a pool, the attached index is
  /// shared by the fan-out's workers, so an index that reports
  /// SupportsConcurrentUse() == false fails with kFailedPrecondition
  /// (rejected, not silently serialized). OK without a pool or index.
  Status CheckConcurrentUse() const;

  const ExecOptions& options() const { return options_; }

  /// φ of every vertex of `members` under `path`, in order (see
  /// MapSharded for the sharding). Public for the progressive strategy,
  /// which materializes candidate batches outside a physical plan.
  Result<std::vector<SparseVector>> MaterializeVectors(
      TypeId subject_type, const MetaPath& path,
      const std::vector<LocalId>& members, EvalStats* stats);

  // --- Plan interpretation -----------------------------------------
  // The per-operator API RunPhysicalPlan drives: one slot vector shared
  // by every query of the plan, results assembled per query afterwards.

  /// Executes op `id` of `plan` into slots[id]. Inputs must already be
  /// populated (slots[input].has_value). `runtime` (required) receives
  /// wall time, rows and evaluation stats.
  Status ExecuteOp(const PhysicalPlan& plan, std::size_t id,
                   std::span<OpOutput> slots, PlanOpRuntime* runtime);

  /// Builds the per-query result of `plan.queries[query_index]` from
  /// executed slots: outliers from its TopK op, stage/eval stats and
  /// reuse counters folded from `runtimes` over the query's ops, plus
  /// the annotated plan_ops. total_nanos and parse/analyze stages are
  /// left zero for the caller.
  QueryResult AssembleResult(const PhysicalPlan& plan,
                             std::size_t query_index,
                             std::span<const OpOutput> slots,
                             std::span<const PlanOpRuntime> runtimes) const;

 private:
  /// out[i] = produce(i, evaluator, acc, stats) for i in [0, count):
  /// serial on evaluator_, or, with a pool and at least two shards of
  /// kMinRowsPerShard rows, one contiguous shard per pool worker, each
  /// with its own evaluator, dense accumulator and stats. Shard stats
  /// merge in shard order after the group waits, a real error wins over
  /// a stop status, and the token is re-checked after the wait, so
  /// output, stats and the surfaced error are thread-count-invariant.
  /// Every produced vector is charged to the stop token's byte budget
  /// once.
  template <typename Produce>
  Result<std::vector<SparseVector>> MapSharded(std::size_t count,
                                               EvalStats* stats,
                                               const Produce& produce);

  HinPtr hin_;
  const MetaPathIndex* index_;
  ExecOptions options_;
  const CancellationToken* stop_token_ = nullptr;
  NeighborVectorEvaluator evaluator_;
  // Traversal workspaces of shards 1.. of a fan-out (shard 0 uses
  // evaluator_), built on the first fan-out that needs them.
  std::vector<std::unique_ptr<NeighborVectorEvaluator>> shard_evaluators_;
};

/// The one way a PhysicalPlan of full queries (Planner::AddQuery)
/// executes: a solo Executor::Run, every BatchRunner and daemon batch.
/// `tokens[q]` is query q's control token (null = no limits);
/// `outcomes[q]`, default-constructed on entry, receives its outcome.
///
/// Ops run in id order (planner ids are topological) on `executor`, on
/// the calling thread; only a large operator fans out, over the
/// executor's ExecOptions::pool. With a pool, CheckConcurrentUse() must
/// pass, or every query fails with its status.
///
/// Skip rule: an op runs only while some query consuming it is live. A
/// query stops being live when its token stops or one of its ops fails;
/// its feature ops (everything outside its set phase) are also skipped
/// once its candidate or reference set comes out empty. An op with one
/// consuming query runs under that query's token; a shared op runs
/// token-free, so one query's stop never corrupts output another query
/// still needs.
///
/// Each query resolves to the first of: its first failure; a set phase
/// cut short by its token; an empty result (no candidates);
/// kFailedPrecondition (no references); a feature pipeline cut short by
/// its token. A stop resolves per the executor's stop_policy: kError
/// reports it, kPartial assembles the completed operators into a
/// degraded result.
void RunPhysicalPlan(const PhysicalPlan& plan,
                     std::span<const CancellationToken* const> tokens,
                     Executor& executor, std::span<BatchOutcome> outcomes);

}  // namespace netout

#endif  // NETOUT_QUERY_EXECUTOR_H_
