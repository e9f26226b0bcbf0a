#ifndef NETOUT_METAPATH_TRAVERSAL_H_
#define NETOUT_METAPATH_TRAVERSAL_H_

#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "graph/hin.h"
#include "metapath/metapath.h"
#include "metapath/sparse_vector.h"

namespace netout {

/// Materializes neighbor vectors by frontier-propagation over the CSR
/// adjacency: for each hop, next[u] += frontier[w] * multiplicity(w, u).
/// This counts *path instances* (Definition 5), so the j-th output entry
/// is exactly |π_P(v, v_j)|.
///
/// The counter keeps one dense workspace per vertex type and reuses it
/// across calls; it is cheap to hold for the lifetime of a query engine
/// but is NOT thread-safe — use one PathCounter per thread.
class PathCounter {
 public:
  explicit PathCounter(HinPtr hin);

  /// φ_P(v): path-instance counts from `v` along `path`. Requires
  /// v.type == path.source_type(). A length-0 path yields the unit
  /// vector at v.
  Result<SparseVector> NeighborVector(VertexRef v, const MetaPath& path);

  /// `weight` · φ along `steps` from the single vertex `source` (of the
  /// first step's source type; not range-checked). Every single-vertex
  /// start runs here. On a path of two or more steps the first hop
  /// skips the accumulator (shorter paths run hop by hop): the CSR row
  /// StepRow(steps[0], source) already is the sorted first-hop vector,
  /// so hop 2 scatters each StepRow(steps[1], w) with weight
  /// `weight·count(source, w)` straight into the target accumulator.
  /// Bitwise identical to a PropagateStep chain from the unit frontier
  /// (DESIGN.md §10). Polls the stop token once per hop.
  Result<SparseVector> NeighborVector(LocalId source,
                                      std::span<const EdgeStep> steps,
                                      double weight = 1.0);

  /// Propagates an arbitrary starting frontier (over path.source_type())
  /// along the path: result = frontierᵀ · M_P. A singleton frontier takes
  /// the single-vertex path above.
  Result<SparseVector> Propagate(const SparseVector& frontier,
                                 const MetaPath& path);

  /// Propagates `frontier` (over the step's source type) one hop.
  SparseVector PropagateStep(const SparseVector& frontier,
                             const EdgeStep& step);

  /// Neighborhood N_P(v) (Definition 6): vertices of the terminal type
  /// reachable by at least one path instance.
  Result<std::vector<VertexRef>> Neighborhood(VertexRef v,
                                              const MetaPath& path);

  const Hin& hin() const { return *hin_; }

  /// Installs (or clears, with nullptr) a cooperative stop token: the
  /// multi-hop entry points poll it between hops and fail with the
  /// token's stop status instead of starting the next propagation.
  /// PropagateStep itself never polls — one hop is the stop granularity.
  /// `token` is borrowed and must outlive its installation.
  void SetStopToken(const CancellationToken* token) { stop_token_ = token; }

 private:
  // Runs `steps` hop by hop from `frontier`, harvesting after each hop.
  // Polls the stop token once per hop.
  Result<SparseVector> RunHops(SparseVector frontier,
                               std::span<const EdgeStep> steps);

  // The stop token's status if it tripped, else OK.
  Status PollStop() const {
    return stop_token_ != nullptr && stop_token_->ShouldStop()
               ? stop_token_->ToStatus()
               : Status::OK();
  }

  HinPtr hin_;
  const CancellationToken* stop_token_ = nullptr;
  // One reusable dense accumulator per vertex type.
  std::vector<DenseAccumulator> acc_;
};

}  // namespace netout

#endif  // NETOUT_METAPATH_TRAVERSAL_H_
