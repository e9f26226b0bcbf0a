#ifndef NETOUT_QUERY_PHYSICAL_PLAN_H_
#define NETOUT_QUERY_PHYSICAL_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/hin.h"
#include "metapath/metapath.h"
#include "query/plan.h"

namespace netout {

/// Typed operators of the physical plan DAG the Planner lowers a
/// QueryPlan into. One op computes one intermediate: a member list, a
/// vector batch, a score list, or the final top-k. Ops reference their
/// producers by index into PhysicalPlan::ops, so shared subcomputations
/// (common subpaths, set expressions repeated across a merged batch)
/// appear exactly once and fan out.
enum class PhysOpKind : std::uint8_t {
  /// Member list of a primary set (anchor neighborhood or a full type,
  /// WITHOUT its WHERE filter — that is a separate kFilter op) or of a
  /// UNION / INTERSECT / EXCEPT over two input member lists.
  kEvalSet = 0,
  /// Applies a resolved WHERE tree to inputs[0]'s members. inputs[1..]
  /// are the kMaterialize ops of the condition meta-paths, one per atom
  /// in pre-order, each batched over the *whole* base member list (the
  /// fix for the old per-member O(|S|·|paths|) evaluation).
  kFilter = 1,
  /// Neighbor vectors, one per member of the op's member group. Either a
  /// root materialization (inputs[0] = the member-list op; `path` is the
  /// full meta-path) or a prefix extension (`extends` = true,
  /// inputs[0] = the parent kMaterialize; `path` is the remaining
  /// suffix, propagated from the parent's vectors).
  kMaterialize = 2,
  /// Per-candidate outlier scores for one feature meta-path.
  /// inputs = [candidate members, reference members, materialize].
  kScore = 3,
  /// Combined scores across features. Weighted/rank combination takes
  /// one kScore input per feature (in feature order, possibly
  /// repeating a shared op); joint connectivity takes
  /// [candidates, references, materialize...] and scores once.
  kCombine = 4,
  /// Final selection. inputs = [combine, candidate members,
  /// feature materialize ops...] (the latter drive zero-visibility).
  kTopK = 5,
  /// Materializes the full relation matrix of `path` directly from the
  /// graph (no inputs). With `build_reverse`, the reversed path is
  /// expanded instead and the result transposed — chosen when the
  /// cost model says the backward degree sums are cheaper; the matrix
  /// content is identical either way. Consumed by kMaterialize ops via
  /// `matrix_input`.
  kBuildMatrix = 6,
};

/// How a kMaterialize / anchor-hop evaluation is served: raw traversal,
/// or through the attached index's length-2 chunk decomposition. The
/// planner picks this per operator — paths shorter than one chunk gain
/// nothing from an index and run as plain traversals even when an index
/// is attached.
enum class IndexMode : std::uint8_t {
  kTraverse = 0,
  kIndexed = 1,
};

/// "No operator" sentinel for optional op references.
inline constexpr std::size_t kNoOp = static_cast<std::size_t>(-1);

/// One operator of the DAG. A flat tagged struct (not a class
/// hierarchy): the executor interprets ops in a switch and the planner
/// builds them in one pass; only the fields of the op's kind are
/// meaningful. Ops borrow ResolvedPrimary / ResolvedWhere / QueryPlan
/// nodes — the QueryPlans handed to the Planner must outlive the
/// physical plan.
struct PhysicalOp {
  PhysOpKind kind = PhysOpKind::kEvalSet;
  std::vector<std::size_t> inputs;

  // kEvalSet
  SetExpr::Kind set_kind = SetExpr::Kind::kPrimary;
  const ResolvedPrimary* primary = nullptr;  // kPrimary leaves
  TypeId element_type = kInvalidTypeId;

  // kFilter
  const ResolvedWhere* where = nullptr;

  // kMaterialize
  MetaPath path;       // full path (root) or remaining suffix (extends)
  bool extends = false;
  /// The member-list op this op's vectors are aligned with (the root of
  /// an extension chain materializes over it; consumers map member ids
  /// to vector positions through it).
  std::size_t members_op = kNoOp;
  TypeId subject_type = kInvalidTypeId;
  IndexMode index_mode = IndexMode::kTraverse;
  /// Cost-based evaluation: when not kNoOp, inputs[matrix_input] is a
  /// kBuildMatrix op and this op's vectors come from it — a root op
  /// copies matrix rows per member, an extension multiplies each parent
  /// vector through the matrix — instead of traversing `path`. Count
  /// arithmetic is integral (DESIGN.md §10), so the result is bitwise
  /// identical to the traversal it replaces.
  std::size_t matrix_input = kNoOp;

  // kBuildMatrix
  bool build_reverse = false;

  /// Planner-estimated output rows (members / vectors / matrix rows);
  /// 0 = no estimate. Rendered next to the observed row count by the
  /// runtime EXPLAIN so estimator quality is visible per op.
  std::size_t est_rows = 0;

  // kScore / kCombine / kTopK: the query whose measure / weights /
  // combine mode / k parameterize the op.
  const QueryPlan* query = nullptr;

  /// Index of the PlanQuery that first requested this op; per-query
  /// stats attribute a shared op's materialization cost to its owner and
  /// count reuse for everyone else.
  std::size_t owner_query = 0;
};

/// Per-query roots into the shared op DAG.
struct PlanQuery {
  const QueryPlan* query = nullptr;  // null for bare-set lowering
  std::size_t candidate_op = kNoOp;
  std::size_t reference_op = kNoOp;  // == candidate_op when Sr = Sc
  std::size_t topk_op = kNoOp;       // kNoOp for bare-set lowering
  /// Ops reachable from the candidate/reference roots, ascending
  /// (= topological) order. The executor runs these first and preserves
  /// the legacy early-out: an empty candidate set returns an empty
  /// result without touching the feature pipeline.
  std::vector<std::size_t> set_phase_ops;
  /// Every op this query consumes, ascending order (superset of
  /// set_phase_ops).
  std::vector<std::size_t> ops;
};

/// The physical plan: ops in topological order (an op's inputs always
/// precede it) plus per-query roots. Produced by Planner, interpreted by
/// Executor, rendered by EXPLAIN PLAN.
struct PhysicalPlan {
  std::vector<PhysicalOp> ops;
  std::vector<PlanQuery> queries;
  /// Fan-out per op: how many op inputs reference it (an op listed twice
  /// by one consumer counts twice). reuse = consumer_count > 1.
  std::vector<std::size_t> consumer_count;
  bool cse_enabled = true;
  /// MetaPathIndex::Name() of the attached index; empty when none.
  std::string index_name;
};

/// Self-contained description of one op, for EXPLAIN PLAN and the JSON
/// result: static shape (label / detail / mode / reuse) plus runtime
/// observations filled in after execution. Owns its strings, so it
/// outlives the PhysicalPlan and the QueryPlan it was derived from.
struct PlanOpInfo {
  std::size_t id = 0;
  std::vector<std::size_t> inputs;
  std::string label;       // "Materialize", "Score", ...
  std::string detail;      // op-specific: path, set, measure, k, ...
  std::string index_mode;  // "traverse" or the index's Name(); "" = n/a
  std::size_t reuse_count = 1;  // consumer_count, 1 = unshared
  std::size_t est_rows = 0;     // planner estimate; 0 = none

  // Runtime (zero until the op executed).
  bool executed = false;
  std::int64_t wall_nanos = 0;
  std::size_t rows = 0;  // members / vectors / scores produced
  std::size_t vectors_materialized = 0;
  std::size_t vectors_reused = 0;
};

/// Canonical one-line rendering of a resolved WHERE tree (shared by
/// EXPLAIN PLAN and Engine::DescribePlan).
std::string FormatWhere(const Hin& hin, const ResolvedWhere& where);

/// Static descriptions of ops `ids` of `plan` (runtime fields zeroed),
/// aligned with `ids` — one query's PlanQuery::ops, so describing every
/// query of a batch costs the batch's size, not its square.
std::vector<PlanOpInfo> DescribePhysicalPlan(
    const Hin& hin, const PhysicalPlan& plan,
    std::span<const std::size_t> ids);

/// Renders op infos as an indented operator tree. Roots are the ops no
/// other op in `infos` consumes; a shared op's subtree is printed once
/// and later occurrences collapse to a back-reference. With
/// `include_runtime`, each executed op carries its wall time and row
/// count.
std::string RenderPlan(std::span<const PlanOpInfo> infos,
                       bool include_runtime);

}  // namespace netout

#endif  // NETOUT_QUERY_PHYSICAL_PLAN_H_
