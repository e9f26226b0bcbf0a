#ifndef NETOUT_METAPATH_EVALUATOR_H_
#define NETOUT_METAPATH_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/result.h"
#include "common/stopwatch.h"
#include "graph/hin.h"
#include "metapath/index_iface.h"
#include "metapath/metapath.h"
#include "metapath/traversal.h"

namespace netout {

/// Per-stage timing and hit statistics of neighbor-vector evaluation.
/// These are the quantities broken out in Figure 4:
///  * not_indexed — traversal-based materialization for vertices without
///    pre-materialized vectors (and the baseline's full traversals);
///  * indexed     — looking up and combining pre-materialized vectors.
struct EvalStats {
  TimeAccumulator not_indexed;
  TimeAccumulator indexed;
  std::size_t index_hits = 0;
  std::size_t index_misses = 0;

  void Clear() {
    not_indexed.Clear();
    indexed.Clear();
    index_hits = 0;
    index_misses = 0;
  }

  void MergeFrom(const EvalStats& other) {
    not_indexed.AddNanos(other.not_indexed.TotalNanos());
    indexed.AddNanos(other.indexed.TotalNanos());
    index_hits += other.index_hits;
    index_misses += other.index_misses;
  }
};

/// Computes neighbor vectors φ_P(v), transparently using a
/// pre-materialization index when one is attached.
///
/// Without an index this is plain traversal (the paper's Baseline).
/// With an index, the meta-path is decomposed into length-2 chunks
/// (Section 6.2): the frontier is pushed through each chunk by combining
/// pre-materialized rows (index hits) with on-the-fly two-hop traversals
/// (misses), plus a single raw hop when the path length is odd.
///
/// Not thread-safe (owns a traversal workspace); create one per thread.
class NeighborVectorEvaluator {
 public:
  /// `index` may be null (baseline). It is borrowed and must outlive the
  /// evaluator.
  NeighborVectorEvaluator(HinPtr hin, const MetaPathIndex* index);

  /// φ_P(v) with per-stage timing accumulated into `stats` (may be null).
  Result<SparseVector> Evaluate(VertexRef v, const MetaPath& path,
                                EvalStats* stats);

  /// Pushes an arbitrary starting frontier (over path.source_type())
  /// through `path`: result = frontierᵀ · M_P, through the index when one
  /// is attached. This is the shared-prefix extension primitive: a
  /// materialized prefix vector re-enters here as the frontier of the
  /// remaining suffix. A length-0 path (or an empty frontier) returns the
  /// frontier unchanged.
  Result<SparseVector> EvaluateFrontier(SparseVector frontier,
                                        const MetaPath& path,
                                        EvalStats* stats);

  const Hin& hin() const { return *hin_; }
  bool has_index() const { return index_ != nullptr; }

  /// Installs (or clears, with nullptr) a cooperative stop token, also
  /// forwarded to the owned PathCounter: evaluation polls it at chunk
  /// boundaries (per length-2 chunk, per hop, and every few hundred
  /// frontier entries inside a wide chunk) and fails with the token's
  /// stop status. `token` is borrowed and must outlive its installation.
  void SetStopToken(const CancellationToken* token) {
    stop_token_ = token;
    counter_.SetStopToken(token);
  }

 private:
  // The length-2 chunk decomposition loop (index attached): pushes the
  // frontier through full chunks via the index and a trailing odd hop
  // raw. Fails with the stop status when the installed token trips.
  Result<SparseVector> EvaluateSteps(SparseVector frontier,
                                     std::span<const EdgeStep> steps,
                                     EvalStats* stats);

  HinPtr hin_;
  const MetaPathIndex* index_;
  // The pinned snapshot's epoch, captured at construction; every index
  // Lookup/Remember goes through the epoch-checked LookupAt/RememberAt.
  std::uint64_t epoch_ = 0;
  const CancellationToken* stop_token_ = nullptr;
  PathCounter counter_;
  DenseAccumulator chunk_acc_;
};

}  // namespace netout

#endif  // NETOUT_METAPATH_EVALUATOR_H_
