#ifndef NETOUT_METAPATH_SPARSE_VECTOR_H_
#define NETOUT_METAPATH_SPARSE_VECTOR_H_

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"

namespace netout {

/// Non-owning view over a sparse vector: parallel arrays of sorted,
/// unique indices and their values. Both SparseVector and RelationMatrix
/// rows convert to this, so the numeric kernels below work on either.
struct SparseVecView {
  std::span<const LocalId> indices;
  std::span<const double> values;

  std::size_t nnz() const { return indices.size(); }
  bool empty() const { return indices.empty(); }

  /// Debug-build check that indices are strictly increasing (the merge
  /// kernels above silently produce garbage on unsorted input). No-op
  /// when NDEBUG is defined.
  void DebugCheckSorted() const;
};

/// An owned sparse vector over the type-local id space of one vertex type
/// (the paper's neighbor vector, Definition 7): index j holds
/// |π_P(v, v_j)|, the number of path instances of the meta-path from v to
/// vertex j of the terminal type.
///
/// Values are doubles: raw path counts are integral, but weighted
/// meta-path combinations and normalized scores are not.
class SparseVector {
 public:
  SparseVector() = default;

  /// Builds from possibly-unsorted, possibly-duplicated (index, value)
  /// pairs; duplicates are summed, zero sums are kept (callers that care
  /// should Prune()).
  static SparseVector FromPairs(
      std::vector<std::pair<LocalId, double>> pairs);

  /// Builds from already-sorted unique parallel arrays (fast path used by
  /// the traversal engine). Aborts in debug if unsorted.
  static SparseVector FromSorted(std::vector<LocalId> indices,
                                 std::vector<double> values);

  SparseVecView View() const {
    return SparseVecView{std::span<const LocalId>(indices_),
                         std::span<const double>(values_)};
  }

  std::size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }

  /// Value at `index`, 0.0 if absent. O(log nnz).
  double ValueAt(LocalId index) const;

  std::span<const LocalId> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }

  /// Removes entries with value exactly 0.
  void Prune();

  /// Multiplies every value by `factor` in place.
  void Scale(double factor);

  /// Approximate heap footprint in bytes (index-size accounting).
  std::size_t MemoryBytes() const {
    return indices_.capacity() * sizeof(LocalId) +
           values_.capacity() * sizeof(double);
  }

  /// "[3:1, 7:2.5]" — debugging/test aid.
  std::string ToString() const;

  friend bool operator==(const SparseVector& a, const SparseVector& b) {
    return a.indices_ == b.indices_ && a.values_ == b.values_;
  }

 private:
  std::vector<LocalId> indices_;
  std::vector<double> values_;
};

/// Dot product of two sparse views (merge join on sorted indices).
double Dot(SparseVecView a, SparseVecView b);

/// Sum of values / sum of |values|.
double Sum(SparseVecView v);
double L1Norm(SparseVecView v);

/// Squared Euclidean norm. For a neighbor vector under meta-path P this
/// equals |π_{PP⁻¹}(v,v)| — the vertex's *visibility* (Section 5.1).
double L2NormSquared(SparseVecView v);

/// a + scale * b as a new vector (merge join).
SparseVector AddScaled(SparseVecView a, SparseVecView b, double scale);

/// Cosine similarity; 0 when either vector is all-zero.
double CosineSimilarity(SparseVecView a, SparseVecView b);

/// Reusable dense accumulator for building sparse vectors over a fixed
/// dimension (one vertex type). Add() is O(1); Harvest() emits a sorted
/// SparseVector and resets. The workspace persists across calls so
/// repeated materializations avoid reallocating the dense array.
///
/// Two harvesting regimes: while the touched set is small relative to
/// the dimension, touched indices are tracked and Harvest sorts them
/// (O(t log t)). Once the touched count reaches max(8, dimension/16) the
/// accumulator flips to dense mode — tracking stops (adds become a pure
/// scatter) and Harvest scans the whole dense array with the vectorized
/// harvest kernels, which is both cheaper than the sort at that density
/// and branch-light. The crossover comes from a BM_AccumulatorHarvest
/// sweep (DESIGN.md §10). Both regimes produce identical vectors.
class DenseAccumulator {
 public:
  /// Grows the dense workspace to `dimension` slots if needed.
  void Resize(std::size_t dimension);

  void Add(LocalId index, double value);

  /// Bulk add of a sorted unique (index, value) span scaled by `weight`:
  /// dense[idx[k]] += weight * val[k]. Kernel-dispatched.
  void AddSpan(std::span<const LocalId> indices, std::span<const double> values,
               double weight);

  /// Frontier expansion: dense[e.neighbor] += weight * e.count for every
  /// entry of a CSR row. Kernel-dispatched.
  void AddRow(std::span<const CsrEntry> row, double weight);

  /// True if no slot has been touched since the last Harvest/Clear.
  bool IsEmpty() const { return touched_.empty() && !dense_mode_; }

  std::size_t dimension() const { return dense_.size(); }

  double ValueAt(LocalId index) const { return dense_[index]; }

  /// Emits the accumulated vector (sorted) and clears the workspace.
  SparseVector Harvest();

  /// Clears without emitting.
  void Clear();

 private:
  void NoteTouched(LocalId index) {
    touched_.push_back(index);
    if (touched_.size() >= dense_switch_) dense_mode_ = true;
  }

  std::vector<double> dense_;
  std::vector<LocalId> touched_;
  /// Touched count at which tracking stops and Harvest switches to a
  /// full dense scan.
  std::size_t dense_switch_ = 0;
  bool dense_mode_ = false;
};

}  // namespace netout

#endif  // NETOUT_METAPATH_SPARSE_VECTOR_H_
