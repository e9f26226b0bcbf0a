#include "metapath/traversal.h"

#include <utility>

#include "common/logging.h"

namespace netout {

PathCounter::PathCounter(HinPtr hin) : hin_(std::move(hin)) {
  NETOUT_CHECK(hin_ != nullptr);
  acc_.resize(hin_->schema().num_vertex_types());
}

Result<SparseVector> PathCounter::NeighborVector(VertexRef v,
                                                 const MetaPath& path) {
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
  return NeighborVector(v.local, path.steps());
}

Result<SparseVector> PathCounter::NeighborVector(
    LocalId source, std::span<const EdgeStep> steps, double weight) {
  if (steps.size() < 2) {
    return RunHops(SparseVector::FromSorted({source}, {weight}), steps);
  }
  NETOUT_RETURN_IF_ERROR(PollStop());
  const std::span<const CsrEntry> first = hin_->StepRow(steps[0], source);
  NETOUT_RETURN_IF_ERROR(PollStop());
  const TypeId target = hin_->schema().StepTarget(steps[1]);
  DenseAccumulator& acc = acc_[target];
  acc.Resize(hin_->NumVertices(target));
  // Each first-hop slot would receive exactly one add into +0.0, so its
  // harvested value is this product (an exact 0.0 would be dropped).
  // Same products, same ascending-w order as propagating the harvested
  // first hop, so the result is bitwise the two-pass one.
  for (const CsrEntry& entry : first) {
    const double value = weight * static_cast<double>(entry.count);
    if (value == 0.0) continue;
    acc.AddRow(hin_->StepRow(steps[1], entry.neighbor), value);
  }
  SparseVector frontier = acc.Harvest();
  if (frontier.empty()) return frontier;
  return RunHops(std::move(frontier), steps.subspan(2));
}

Result<SparseVector> PathCounter::Propagate(const SparseVector& frontier,
                                            const MetaPath& path) {
  if (path.types().empty()) {
    return Status::InvalidArgument("empty meta-path");
  }
  if (frontier.nnz() == 1) {
    return NeighborVector(frontier.indices()[0], path.steps(),
                          frontier.values()[0]);
  }
  return RunHops(frontier, path.steps());
}

SparseVector PathCounter::PropagateStep(const SparseVector& frontier,
                                        const EdgeStep& step) {
  const TypeId target = hin_->schema().StepTarget(step);
  DenseAccumulator& acc = acc_[target];
  acc.Resize(hin_->NumVertices(target));
  const auto indices = frontier.indices();
  const auto values = frontier.values();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    // StepRow is overlay-aware: rows a delta patched come from the
    // overlay, the rest straight from the base CSR.
    acc.AddRow(hin_->StepRow(step, indices[i]), values[i]);
  }
  return acc.Harvest();
}

Result<SparseVector> PathCounter::RunHops(SparseVector frontier,
                                          std::span<const EdgeStep> steps) {
  for (const EdgeStep& step : steps) {
    NETOUT_RETURN_IF_ERROR(PollStop());
    frontier = PropagateStep(frontier, step);
    if (frontier.empty()) break;  // nothing reachable further on
  }
  return frontier;
}

Result<std::vector<VertexRef>> PathCounter::Neighborhood(
    VertexRef v, const MetaPath& path) {
  NETOUT_ASSIGN_OR_RETURN(SparseVector vec, NeighborVector(v, path));
  std::vector<VertexRef> out;
  out.reserve(vec.nnz());
  for (LocalId local : vec.indices()) {
    out.push_back(VertexRef{path.target_type(), local});
  }
  return out;
}

}  // namespace netout
