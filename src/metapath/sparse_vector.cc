#include "metapath/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "metapath/kernels.h"

namespace netout {

void SparseVecView::DebugCheckSorted() const {
#ifndef NDEBUG
  NETOUT_CHECK(indices.size() == values.size());
  for (std::size_t i = 1; i < indices.size(); ++i) {
    NETOUT_CHECK(indices[i - 1] < indices[i])
        << "sparse view requires strictly increasing indices";
  }
#endif
}

SparseVector SparseVector::FromPairs(
    std::vector<std::pair<LocalId, double>> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  SparseVector out;
  out.indices_.reserve(pairs.size());
  out.values_.reserve(pairs.size());
  std::size_t i = 0;
  while (i < pairs.size()) {
    const LocalId index = pairs[i].first;
    double value = 0.0;
    while (i < pairs.size() && pairs[i].first == index) {
      value += pairs[i].second;
      ++i;
    }
    out.indices_.push_back(index);
    out.values_.push_back(value);
  }
  return out;
}

SparseVector SparseVector::FromSorted(std::vector<LocalId> indices,
                                      std::vector<double> values) {
  NETOUT_CHECK(indices.size() == values.size());
#ifndef NDEBUG
  for (std::size_t i = 1; i < indices.size(); ++i) {
    NETOUT_CHECK(indices[i - 1] < indices[i])
        << "FromSorted requires strictly increasing indices";
  }
#endif
  SparseVector out;
  out.indices_ = std::move(indices);
  out.values_ = std::move(values);
  return out;
}

double SparseVector::ValueAt(LocalId index) const {
  auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  if (it == indices_.end() || *it != index) return 0.0;
  return values_[static_cast<std::size_t>(it - indices_.begin())];
}

void SparseVector::Prune() {
  std::size_t write = 0;
  for (std::size_t read = 0; read < indices_.size(); ++read) {
    if (values_[read] != 0.0) {
      indices_[write] = indices_[read];
      values_[write] = values_[read];
      ++write;
    }
  }
  indices_.resize(write);
  values_.resize(write);
}

void SparseVector::Scale(double factor) {
  for (double& value : values_) value *= factor;
}

std::string SparseVector::ToString() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (i > 0) out << ", ";
    out << indices_[i] << ":" << values_[i];
  }
  out << "]";
  return out.str();
}

double Dot(SparseVecView a, SparseVecView b) {
  return ActiveKernels().dot(a.indices.data(), a.values.data(),
                             a.indices.size(), b.indices.data(),
                             b.values.data(), b.indices.size());
}

double Sum(SparseVecView v) {
  return ActiveKernels().sum(v.values.data(), v.values.size());
}

double L1Norm(SparseVecView v) {
  return ActiveKernels().l1(v.values.data(), v.values.size());
}

double L2NormSquared(SparseVecView v) {
  return ActiveKernels().l2sq(v.values.data(), v.values.size());
}

SparseVector AddScaled(SparseVecView a, SparseVecView b, double scale) {
  std::vector<LocalId> indices(a.nnz() + b.nnz());
  std::vector<double> values(indices.size());
  const std::size_t written = ActiveKernels().add_scaled(
      a.indices.data(), a.values.data(), a.indices.size(), b.indices.data(),
      b.values.data(), b.indices.size(), scale, indices.data(), values.data());
  indices.resize(written);
  values.resize(written);
  return SparseVector::FromSorted(std::move(indices), std::move(values));
}

double CosineSimilarity(SparseVecView a, SparseVecView b) {
  const double na = L2NormSquared(a);
  const double nb = L2NormSquared(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (std::sqrt(na) * std::sqrt(nb));
}

void DenseAccumulator::Resize(std::size_t dimension) {
  if (dense_.size() < dimension) {
    dense_.resize(dimension, 0.0);
  }
  // Dense mode from dimension/16 touched slots on: the measured
  // BM_AccumulatorHarvest sweep (EXPERIMENTS.md) puts the break-even
  // between the vectorized full scan and the touched-list sort near
  // dimension/16 for the small terminal types (venue, term).
  dense_switch_ = std::max<std::size_t>(8, dense_.size() / 16);
}

void DenseAccumulator::Add(LocalId index, double value) {
  NETOUT_CHECK(index < dense_.size()) << "accumulator index out of range";
  if (!dense_mode_ && dense_[index] == 0.0) {
    NoteTouched(index);
  }
  dense_[index] += value;
  // A sum landing exactly on zero would orphan the touched entry; keep it
  // (Harvest filters zero values) to stay O(1) per Add.
}

void DenseAccumulator::AddSpan(std::span<const LocalId> indices,
                               std::span<const double> values, double weight) {
  NETOUT_CHECK(indices.size() == values.size());
  NETOUT_CHECK(indices.empty() || indices.back() < dense_.size())
      << "accumulator index out of range";
  if (dense_mode_) {
    ActiveKernels().add_span(indices.data(), values.data(), indices.size(),
                             weight, dense_.data());
    return;
  }
  // Sparse regime stays inline: the per-slot zero test and touched push
  // defeat vectorization, and an indirect call per (often tiny) span
  // costs more than the loop.
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const LocalId i = indices[k];
    if (dense_[i] == 0.0) touched_.push_back(i);
    dense_[i] += weight * values[k];
  }
  if (touched_.size() >= dense_switch_) dense_mode_ = true;
}

void DenseAccumulator::AddRow(std::span<const CsrEntry> row, double weight) {
  NETOUT_CHECK(row.empty() || row.back().neighbor < dense_.size())
      << "accumulator index out of range";
  if (dense_mode_) {
    ActiveKernels().expand_row(row.data(), row.size(), weight, dense_.data());
    return;
  }
  for (const CsrEntry& entry : row) {
    const LocalId i = entry.neighbor;
    if (dense_[i] == 0.0) touched_.push_back(i);
    dense_[i] += weight * static_cast<double>(entry.count);
  }
  if (touched_.size() >= dense_switch_) dense_mode_ = true;
}

SparseVector DenseAccumulator::Harvest() {
  if (dense_mode_) {
    // Dense regime: the touched list is stale (tracking stopped at the
    // switch); scan the whole array instead. harvest_fill resets every
    // slot to +0.0.
    const KernelOps& kernels = ActiveKernels();
    const std::size_t nnz = kernels.harvest_count(dense_.data(), dense_.size());
    std::vector<LocalId> indices(nnz);
    std::vector<double> values(nnz);
    kernels.harvest_fill(dense_.data(), dense_.size(), indices.data(),
                         values.data());
    touched_.clear();
    dense_mode_ = false;
    return SparseVector::FromSorted(std::move(indices), std::move(values));
  }
  std::sort(touched_.begin(), touched_.end());
  std::vector<LocalId> indices;
  std::vector<double> values;
  indices.reserve(touched_.size());
  values.reserve(touched_.size());
  LocalId prev = kInvalidLocalId;
  for (LocalId index : touched_) {
    if (index == prev) continue;  // duplicate from a zero-crossing re-add
    prev = index;
    if (dense_[index] != 0.0) {
      indices.push_back(index);
      values.push_back(dense_[index]);
    }
    dense_[index] = 0.0;
  }
  touched_.clear();
  return SparseVector::FromSorted(std::move(indices), std::move(values));
}

void DenseAccumulator::Clear() {
  if (dense_mode_) {
    std::fill(dense_.begin(), dense_.end(), 0.0);
    dense_mode_ = false;
  } else {
    for (LocalId index : touched_) dense_[index] = 0.0;
  }
  touched_.clear();
}

}  // namespace netout
