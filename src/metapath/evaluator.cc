#include "metapath/evaluator.h"

#include <utility>

#include "common/logging.h"

namespace netout {

NeighborVectorEvaluator::NeighborVectorEvaluator(HinPtr hin,
                                                 const MetaPathIndex* index)
    : hin_(std::move(hin)), index_(index), counter_(hin_) {
  NETOUT_CHECK(hin_ != nullptr);
  // Pinned once: every index interaction below is epoch-checked against
  // the snapshot this evaluator was created with, so a mutation commit
  // mid-query can neither serve us rows from another epoch nor let us
  // poison the cache with rows from ours.
  epoch_ = hin_->epoch();
}

Result<SparseVector> NeighborVectorEvaluator::Evaluate(VertexRef v,
                                                       const MetaPath& path,
                                                       EvalStats* stats) {
  if (path.types().empty()) {
    return Status::InvalidArgument("empty meta-path");
  }
  if (v.type != path.source_type()) {
    return Status::InvalidArgument(
        "vertex type does not match the meta-path source type");
  }
  if (v.local >= hin_->NumVertices(v.type)) {
    return Status::OutOfRange("vertex id out of range");
  }

  if (index_ == nullptr) {
    // Baseline: one full traversal, all time charged to not_indexed.
    ScopedTimer timer(stats ? &stats->not_indexed : nullptr);
    return counter_.NeighborVector(v, path);
  }

  return EvaluateSteps(SparseVector::FromSorted({v.local}, {1.0}),
                       path.steps(), stats);
}

Result<SparseVector> NeighborVectorEvaluator::EvaluateFrontier(
    SparseVector frontier, const MetaPath& path, EvalStats* stats) {
  if (path.length() == 0 || frontier.empty()) return frontier;
  if (index_ == nullptr) {
    ScopedTimer timer(stats ? &stats->not_indexed : nullptr);
    return counter_.Propagate(frontier, path);
  }
  return EvaluateSteps(std::move(frontier), path.steps(), stats);
}

Result<SparseVector> NeighborVectorEvaluator::EvaluateSteps(
    SparseVector frontier, std::span<const EdgeStep> steps,
    EvalStats* stats) {
  // How many frontier entries a wide chunk processes between stop-token
  // polls: coarse enough that the relaxed atomic load is free, fine
  // enough that a hub-anchored frontier cannot run away for seconds.
  constexpr std::size_t kPollStride = 256;
  std::size_t i = 0;
  for (; i + 1 < steps.size(); i += 2) {
    if (stop_token_ != nullptr && stop_token_->ShouldStop()) {
      return stop_token_->ToStatus();
    }
    const TwoStepKey key{steps[i], steps[i + 1]};
    const std::span<const EdgeStep> chunk = steps.subspan(i, 2);
    const TypeId target = hin_->schema().StepTarget(steps[i + 1]);

    // Fast path for the dominant case — a singleton frontier (the start
    // vertex, or a chain that stayed single): an index hit is already
    // the sorted answer and needs no accumulate-and-sort round trip.
    if (frontier.nnz() == 1) {
      const LocalId row = frontier.indices()[0];
      const double weight = frontier.values()[0];
      const std::optional<IndexHit> hit = index_->LookupAt(key, row, epoch_);
      if (hit.has_value()) {
        ScopedTimer timer(stats ? &stats->indexed : nullptr);
        if (stats) ++stats->index_hits;
        frontier = SparseVector::FromSorted(
            std::vector<LocalId>(hit->indices.begin(), hit->indices.end()),
            std::vector<double>(hit->values.begin(), hit->values.end()));
        if (weight != 1.0) frontier.Scale(weight);
      } else {
        ScopedTimer timer(stats ? &stats->not_indexed : nullptr);
        if (stats) ++stats->index_misses;
        NETOUT_ASSIGN_OR_RETURN(frontier, counter_.NeighborVector(row, chunk));
        index_->RememberAt(key, row, frontier, epoch_);
        if (weight != 1.0) frontier.Scale(weight);
      }
      if (frontier.empty()) return frontier;
      continue;
    }

    chunk_acc_.Resize(hin_->NumVertices(target));

    const auto indices = frontier.indices();
    const auto values = frontier.values();
    for (std::size_t k = 0; k < indices.size(); ++k) {
      if (stop_token_ != nullptr && k % kPollStride == 0 &&
          stop_token_->ShouldStop()) {
        return stop_token_->ToStatus();
      }
      const LocalId row = indices[k];
      const double weight = values[k];
      const std::optional<IndexHit> hit = index_->LookupAt(key, row, epoch_);
      if (hit.has_value()) {
        ScopedTimer timer(stats ? &stats->indexed : nullptr);
        if (stats) ++stats->index_hits;
        chunk_acc_.AddSpan(hit->indices, hit->values, weight);
      } else {
        ScopedTimer timer(stats ? &stats->not_indexed : nullptr);
        if (stats) ++stats->index_misses;
        NETOUT_ASSIGN_OR_RETURN(SparseVector two_hop,
                                counter_.NeighborVector(row, chunk));
        index_->RememberAt(key, row, two_hop, epoch_);
        chunk_acc_.AddSpan(two_hop.indices(), two_hop.values(), weight);
      }
    }
    {
      ScopedTimer timer(stats ? &stats->indexed : nullptr);
      frontier = chunk_acc_.Harvest();
    }
    if (frontier.empty()) return frontier;
  }

  if (i < steps.size()) {
    if (stop_token_ != nullptr && stop_token_->ShouldStop()) {
      return stop_token_->ToStatus();
    }
    // Odd-length tail: a single raw hop (Section 6.2).
    ScopedTimer timer(stats ? &stats->not_indexed : nullptr);
    frontier = counter_.PropagateStep(frontier, steps[i]);
  }
  return frontier;
}

}  // namespace netout
