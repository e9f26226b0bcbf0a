#include "measure/scores.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/cancellation.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "measure/connectivity.h"
#include "measure/lof.h"
#include "metapath/kernels.h"

namespace netout {

const char* OutlierMeasureToString(OutlierMeasure measure) {
  switch (measure) {
    case OutlierMeasure::kNetOut:
      return "netout";
    case OutlierMeasure::kPathSim:
      return "pathsim";
    case OutlierMeasure::kCosSim:
      return "cossim";
    case OutlierMeasure::kLof:
      return "lof";
    case OutlierMeasure::kCustom:
      return "custom";
  }
  return "?";
}

Result<OutlierMeasure> ParseOutlierMeasure(std::string_view text) {
  const std::string lower = AsciiToLower(text);
  if (lower == "netout") return OutlierMeasure::kNetOut;
  if (lower == "pathsim") return OutlierMeasure::kPathSim;
  if (lower == "cossim" || lower == "cosine") return OutlierMeasure::kCosSim;
  if (lower == "lof") return OutlierMeasure::kLof;
  if (lower == "custom") {
    return Status::InvalidArgument(
        "the custom measure requires a similarity function and is only "
        "available through the C++ API (ScoreOptions::custom_similarity)");
  }
  return Status::InvalidArgument("unknown outlier measure '" +
                                 std::string(text) + "'");
}

bool SmallerIsMoreOutlying(OutlierMeasure measure) {
  // Similarity sums (NetOut/PathSim/CosSim/custom): low = disconnected.
  return measure != OutlierMeasure::kLof;
}

std::vector<SparseVecView> AsViews(std::span<const SparseVector> vectors) {
  std::vector<SparseVecView> views;
  views.reserve(vectors.size());
  for (const SparseVector& vec : vectors) {
    views.push_back(vec.View());
  }
  return views;
}

namespace {

/// One past the largest index of any of `vectors` (0 when all are
/// empty): the dimension their sum needs. indices.back() is the max
/// index only for sorted views — an unsorted (e.g. hand-built or
/// deserialized) vector would silently under-size the sum and abort on
/// the add.
std::size_t SumDimension(std::span<const SparseVecView> vectors) {
  std::size_t dimension = 0;
  for (const SparseVecView& vec : vectors) {
    vec.DebugCheckSorted();
    if (!vec.indices.empty()) {
      dimension = std::max(dimension,
                           static_cast<std::size_t>(vec.indices.back()) + 1);
    }
  }
  return dimension;
}

/// Σ_j φ(vj) as a dense array over [0, SumDimension): the slots
/// SumVectors harvests, before the harvest. Slot values are the same
/// adds in the same order as the accumulator's, so they are bitwise
/// the harvested values; a slot the harvest drops holds ±0.0.
std::vector<double> DenseSum(std::span<const SparseVecView> vectors) {
  std::vector<double> dense(SumDimension(vectors), 0.0);
  const KernelOps& kernels = ActiveKernels();
  for (const SparseVecView& vec : vectors) {
    kernels.add_span(vec.indices.data(), vec.values.data(),
                     vec.indices.size(), 1.0, dense.data());
  }
  return dense;
}

/// Dot(cand, r) where r is DenseSum's array: the merge join's matched
/// products are exactly the candidate entries whose slot is non-zero,
/// added in the same ascending-index order, so the result is bitwise
/// Dot(cand, SumVectors(...)) (DESIGN.md §10).
double GatherDot(SparseVecView cand, std::span<const double> dense) {
  double total = 0.0;
  for (std::size_t k = 0; k < cand.indices.size(); ++k) {
    const std::size_t index = cand.indices[k];
    if (index >= dense.size()) break;
    const double r = dense[index];
    if (r != 0.0) total += cand.values[k] * r;
  }
  return total;
}

}  // namespace

SparseVector SumVectors(std::span<const SparseVecView> vectors) {
  // Dense accumulation over the index range: total nnz is typically far
  // larger than the distinct count, so only the touched slots are sorted
  // at the end (inside Harvest).
  const std::size_t dimension = SumDimension(vectors);
  if (dimension == 0) return SparseVector();
  DenseAccumulator acc;
  acc.Resize(dimension);
  for (const SparseVecView& vec : vectors) {
    acc.AddSpan(vec.indices, vec.values, 1.0);
  }
  return acc.Harvest();
}

SparseVector SumVectors(std::span<const SparseVector> vectors) {
  return SumVectors(std::span<const SparseVecView>(AsViews(vectors)));
}

namespace {

/// Runs fn(i) for every candidate index, fanning across `pool` when one
/// is attached. Each call writes only its own output slot and reads only
/// shared immutable inputs, so the parallel and serial paths produce
/// bitwise-identical scores. `cancel` stops the loop cooperatively (a
/// tripped token leaves later slots unwritten — the caller must turn the
/// stop into an error instead of returning the partial scores).
void ForEachCandidate(ThreadPool* pool, const CancellationToken* cancel,
                      std::size_t count,
                      const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count < 2) {
    constexpr std::size_t kPollStride = 64;
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel != nullptr && i % kPollStride == 0 && cancel->ShouldStop()) {
        return;
      }
      fn(i);
    }
    return;
  }
  ParallelFor(pool, count, fn, cancel);
}

std::vector<double> NetOutFactored(std::span<const SparseVecView> candidates,
                                   std::span<const SparseVecView> references,
                                   ThreadPool* pool,
                                   const CancellationToken* cancel) {
  // Equation (1): Ω(vi) = (φ(vi) · Σ_j φ(vj)) / ‖φ(vi)‖². The reference
  // sum is computed once, kept dense, and shared read-only across
  // workers; each candidate gathers from it in O(nnz(φ(vi))).
  const std::vector<double> reference_sum = DenseSum(references);
  std::vector<double> scores(candidates.size(), 0.0);
  ForEachCandidate(pool, cancel, candidates.size(), [&](std::size_t i) {
    const SparseVecView& cand = candidates[i];
    const double visibility = Visibility(cand);
    if (visibility != 0.0) {
      scores[i] = GatherDot(cand, reference_sum) / visibility;
    }
  });
  return scores;
}

std::vector<double> NetOutNaive(std::span<const SparseVecView> candidates,
                                std::span<const SparseVecView> references,
                                ThreadPool* pool,
                                const CancellationToken* cancel) {
  std::vector<double> scores(candidates.size(), 0.0);
  ForEachCandidate(pool, cancel, candidates.size(), [&](std::size_t i) {
    double total = 0.0;
    for (const SparseVecView& ref : references) {
      total += NormalizedConnectivity(candidates[i], ref);
    }
    scores[i] = total;
  });
  return scores;
}

std::vector<double> PathSimSums(std::span<const SparseVecView> candidates,
                                std::span<const SparseVecView> references,
                                ThreadPool* pool,
                                const CancellationToken* cancel) {
  std::vector<double> scores(candidates.size(), 0.0);
  ForEachCandidate(pool, cancel, candidates.size(), [&](std::size_t i) {
    double total = 0.0;
    for (const SparseVecView& ref : references) {
      total += PathSim(candidates[i], ref);
    }
    scores[i] = total;
  });
  return scores;
}

std::vector<double> CosSimSums(std::span<const SparseVecView> candidates,
                               std::span<const SparseVecView> references,
                               ThreadPool* pool,
                               const CancellationToken* cancel) {
  std::vector<double> scores(candidates.size(), 0.0);
  ForEachCandidate(pool, cancel, candidates.size(), [&](std::size_t i) {
    double total = 0.0;
    for (const SparseVecView& ref : references) {
      total += CosineSimilarity(candidates[i], ref);
    }
    scores[i] = total;
  });
  return scores;
}

}  // namespace

Result<std::vector<double>> ComputeOutlierScores(
    std::span<const SparseVecView> candidates,
    std::span<const SparseVecView> references, const ScoreOptions& options) {
  if (references.empty()) {
    return Status::InvalidArgument(
        "outlier scoring requires a non-empty reference set");
  }
  Result<std::vector<double>> scores =
      [&]() -> Result<std::vector<double>> {
    switch (options.measure) {
      case OutlierMeasure::kNetOut:
        return options.use_factored
                   ? NetOutFactored(candidates, references, options.pool,
                                    options.cancel)
                   : NetOutNaive(candidates, references, options.pool,
                                 options.cancel);
      case OutlierMeasure::kPathSim:
        return PathSimSums(candidates, references, options.pool,
                           options.cancel);
      case OutlierMeasure::kCosSim:
        return CosSimSums(candidates, references, options.pool,
                          options.cancel);
      case OutlierMeasure::kLof:
        return LofScores(candidates, references, options.lof_k);
      case OutlierMeasure::kCustom: {
        if (!options.custom_similarity) {
          return Status::InvalidArgument(
              "kCustom requires ScoreOptions::custom_similarity");
        }
        std::vector<double> totals;
        totals.reserve(candidates.size());
        for (const SparseVecView& cand : candidates) {
          double total = 0.0;
          for (const SparseVecView& ref : references) {
            total += options.custom_similarity(cand, ref);
          }
          totals.push_back(total);
        }
        return totals;
      }
    }
    return Status::Internal("unhandled measure");
  }();
  // A tripped token leaves unvisited slots at 0.0 — never hand those out
  // as real scores; surface the stop instead.
  if (scores.ok() && options.cancel != nullptr &&
      options.cancel->ShouldStop()) {
    return options.cancel->ToStatus();
  }
  return scores;
}

Result<std::vector<double>> ComputeOutlierScores(
    std::span<const SparseVector> candidates,
    std::span<const SparseVector> references, const ScoreOptions& options) {
  const std::vector<SparseVecView> cand_views = AsViews(candidates);
  const std::vector<SparseVecView> ref_views = AsViews(references);
  return ComputeOutlierScores(std::span<const SparseVecView>(cand_views),
                              std::span<const SparseVecView>(ref_views),
                              options);
}

Result<std::vector<double>> JointNetOutScores(
    const std::vector<std::vector<SparseVecView>>& per_path_candidates,
    const std::vector<std::vector<SparseVecView>>& per_path_references,
    const std::vector<double>& weights, ThreadPool* pool,
    const CancellationToken* cancel) {
  if (per_path_candidates.empty() ||
      per_path_candidates.size() != per_path_references.size() ||
      per_path_candidates.size() != weights.size()) {
    return Status::InvalidArgument(
        "joint scoring needs matching per-path candidate/reference lists "
        "and weights");
  }
  const std::size_t num_candidates = per_path_candidates.front().size();
  const std::size_t num_references = per_path_references.front().size();
  if (num_references == 0) {
    return Status::InvalidArgument(
        "outlier scoring requires a non-empty reference set");
  }
  double weight_total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("meta-path weights must be >= 0");
    }
    weight_total += w;
  }
  if (weight_total <= 0.0) {
    return Status::InvalidArgument("total meta-path weight must be > 0");
  }
  for (std::size_t p = 0; p < per_path_candidates.size(); ++p) {
    if (per_path_candidates[p].size() != num_candidates ||
        per_path_references[p].size() != num_references) {
      return Status::InvalidArgument(
          "per-path vertex lists differ in size");
    }
  }

  // Equation (1) applied to the joint connectivity: one reference sum
  // per path, then weighted numerator/denominator per candidate.
  std::vector<std::vector<double>> reference_sums;
  reference_sums.reserve(per_path_references.size());
  for (const auto& refs : per_path_references) {
    reference_sums.push_back(DenseSum(refs));
  }
  std::vector<double> scores(num_candidates, 0.0);
  ForEachCandidate(pool, cancel, num_candidates, [&](std::size_t i) {
    double numerator = 0.0;
    double joint_visibility = 0.0;
    for (std::size_t p = 0; p < per_path_candidates.size(); ++p) {
      const SparseVecView& phi = per_path_candidates[p][i];
      numerator += weights[p] * GatherDot(phi, reference_sums[p]);
      joint_visibility += weights[p] * L2NormSquared(phi);
    }
    scores[i] =
        joint_visibility == 0.0 ? 0.0 : numerator / joint_visibility;
  });
  if (cancel != nullptr && cancel->ShouldStop()) {
    return cancel->ToStatus();
  }
  return scores;
}

Result<std::vector<double>> CombineScores(
    const std::vector<std::vector<double>>& per_path_scores,
    const std::vector<double>& weights, CombineMode mode,
    OutlierMeasure measure) {
  if (per_path_scores.empty()) {
    return Status::InvalidArgument("no per-path scores to combine");
  }
  if (per_path_scores.size() != weights.size()) {
    return Status::InvalidArgument("one weight per meta-path required");
  }
  const std::size_t n = per_path_scores.front().size();
  for (const auto& scores : per_path_scores) {
    if (scores.size() != n) {
      return Status::InvalidArgument("per-path score lists differ in size");
    }
  }
  double weight_total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("meta-path weights must be >= 0");
    }
    weight_total += w;
  }
  if (weight_total <= 0.0) {
    return Status::InvalidArgument("total meta-path weight must be > 0");
  }

  std::vector<double> combined(n, 0.0);
  if (mode == CombineMode::kWeightedAverage) {
    for (std::size_t p = 0; p < per_path_scores.size(); ++p) {
      const double w = weights[p] / weight_total;
      for (std::size_t i = 0; i < n; ++i) {
        combined[i] += w * per_path_scores[p][i];
      }
    }
    return combined;
  }

  // Rank average: convert each path's scores to ranks (0 = most
  // outlying), then weight-average the ranks. NaN scores (possible from
  // a custom similarity) rank last — least outlying — and are ordered
  // explicitly because <,> comparisons with NaN are always false, which
  // would break std::sort's strict-weak-ordering contract (UB).
  const bool ascending = SmallerIsMoreOutlying(measure);
  for (std::size_t p = 0; p < per_path_scores.size(); ++p) {
    const auto& scores = per_path_scores[p];
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const bool a_nan = std::isnan(scores[a]);
                const bool b_nan = std::isnan(scores[b]);
                if (a_nan != b_nan) return b_nan;
                if (!a_nan && scores[a] != scores[b]) {
                  return ascending ? scores[a] < scores[b]
                                   : scores[a] > scores[b];
                }
                return a < b;
              });
    const double w = weights[p] / weight_total;
    for (std::size_t rank = 0; rank < n; ++rank) {
      combined[order[rank]] += w * static_cast<double>(rank);
    }
  }
  return combined;
}

}  // namespace netout
