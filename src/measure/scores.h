#ifndef NETOUT_MEASURE_SCORES_H_
#define NETOUT_MEASURE_SCORES_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "metapath/sparse_vector.h"

namespace netout {

class CancellationToken;
class ThreadPool;

/// Which outlierness measure to apply (Section 5.2 compares them; the
/// paper's contribution is kNetOut, the others are the comparison
/// baselines, LOF being the classic non-network baseline of Section 8).
enum class OutlierMeasure : std::uint8_t {
  kNetOut = 0,
  kPathSim = 1,
  kCosSim = 2,
  kLof = 3,
  /// User-supplied pairwise similarity via ScoreOptions::custom_similarity
  /// (the Section 8 "alternative query language design" note: expert
  /// users may define their own comparison function). Available from the
  /// C++ API only — the query language cannot carry a function.
  kCustom = 4,
};

/// Pairwise similarity for kCustom: the outlier score is the sum of
/// similarities against the reference set (smaller = more outlying).
using SimilarityFn =
    std::function<double(SparseVecView candidate, SparseVecView reference)>;

const char* OutlierMeasureToString(OutlierMeasure measure);
Result<OutlierMeasure> ParseOutlierMeasure(std::string_view text);

/// True if, for `measure`, a *smaller* score means *more* outlying.
/// NetOut/PathSim/CosSim sum (normalized) similarities — low means
/// disconnected; LOF is a density ratio — high means outlying.
bool SmallerIsMoreOutlying(OutlierMeasure measure);

/// Fewest candidate x reference pairs a pairwise measure (PathSim,
/// CosSim, naive NetOut) fans its candidates out over ScoreOptions::pool
/// for; less work scores on the calling thread. The pair count, not the
/// candidate count, sets the break-even: EXPERIMENTS.md ("One schedule,
/// one pool") records the sweep behind it.
inline constexpr std::size_t kMinFanOutPairs = 4096;

/// Score-computation options.
struct ScoreOptions {
  OutlierMeasure measure = OutlierMeasure::kNetOut;

  /// NetOut only: use the Equation (1) factored O(|Sr|+|Sc|) computation
  /// (default) instead of the naive O(|Sr|·|Sc|) pairwise sum. Both give
  /// identical results; the naive form exists as a differential-testing
  /// oracle and for the ablation benchmark.
  bool use_factored = true;

  /// k-nearest-neighbors parameter for LOF.
  std::size_t lof_k = 5;

  /// Required when measure == kCustom; ignored otherwise.
  SimilarityFn custom_similarity;

  /// Optional worker pool (borrowed) for the pairwise per-candidate
  /// loops of PathSim, CosSim and the naive NetOut, used once there are
  /// at least kMinFanOutPairs candidate x reference pairs: each
  /// candidate's score is computed independently against the read-only
  /// references, so results are bitwise-identical to the serial path
  /// regardless of thread count.
  /// Factored NetOut costs tens of nanoseconds per candidate and stays
  /// serial, as do LOF (it mutates shared distance state) and kCustom (a
  /// user similarity fn is not guaranteed thread-safe). Null = serial.
  ThreadPool* pool = nullptr;

  /// Optional cooperative stop token (borrowed). The per-candidate loops
  /// poll it at chunk boundaries; a tripped token makes scoring fail
  /// with the token's stop status instead of returning partial scores.
  const CancellationToken* cancel = nullptr;
};

/// Outlier scores of every candidate against the reference set, given
/// the already-materialized neighbor vectors (one per candidate /
/// reference, all over the same terminal type id space). The primary
/// overload takes non-owning views so callers avoid copying large
/// vectors; the SparseVector overload is a convenience wrapper.
///
///  * kNetOut : Ω(vi) = Σ_j r(vi, vj)                (Definition 10)
///  * kPathSim: Ω(vi) = Σ_j PathSim(vi, vj)
///  * kCosSim : Ω(vi) = Σ_j cos(φ(vi), φ(vj))
///  * kLof    : local outlier factor of vi among the reference vectors
///              under Euclidean distance.
///
/// Zero-visibility candidates score 0 under the three similarity sums
/// (maximally outlying); the caller can filter them beforehand.
Result<std::vector<double>> ComputeOutlierScores(
    std::span<const SparseVecView> candidates,
    std::span<const SparseVecView> references, const ScoreOptions& options);
Result<std::vector<double>> ComputeOutlierScores(
    std::span<const SparseVector> candidates,
    std::span<const SparseVector> references, const ScoreOptions& options);

/// The Equation (1) reference-sum: Σ_{vj ∈ Sr} φ(vj), reusable across
/// measures and queries with the same reference set.
SparseVector SumVectors(std::span<const SparseVecView> vectors);
SparseVector SumVectors(std::span<const SparseVector> vectors);

/// Converts owned vectors to views (cheap; views borrow storage).
std::vector<SparseVecView> AsViews(std::span<const SparseVector> vectors);

/// How to combine per-meta-path scores when the query lists several
/// feature meta-paths (Section 5.1 leaves the policy open and suggests
/// averaging independent scores; rank averaging is provided as a
/// scale-free alternative).
enum class CombineMode : std::uint8_t {
  kWeightedAverage = 0,
  kRankAverage = 1,
  /// Section 5.1's *first* option: redefine connectivity itself as the
  /// weighted sum over the feature meta-paths,
  ///   ψ_w(a,b) = Σ_p w_p · φ_p(a)·φ_p(b),
  /// and compute a single NetOut over it:
  ///   Ω(v) = Σ_j ψ_w(v,j) / ψ_w(v,v)
  ///        = (Σ_p w_p φ_p(v)·refsum_p) / (Σ_p w_p ‖φ_p(v)‖²).
  /// Defined for the NetOut measure only. Query syntax: COMBINE BY joint.
  kJointConnectivity = 2,
};

/// Joint-connectivity NetOut (CombineMode::kJointConnectivity). Outer
/// index of both nested spans: feature meta-path; inner: candidate /
/// reference vertex (the same vertex order across paths). A candidate
/// whose joint visibility is zero scores 0 (maximally outlying).
/// Serial, like the single-path factored NetOut: each candidate costs a
/// gather per path.
Result<std::vector<double>> JointNetOutScores(
    const std::vector<std::vector<SparseVecView>>& per_path_candidates,
    const std::vector<std::vector<SparseVecView>>& per_path_references,
    const std::vector<double>& weights,
    const CancellationToken* cancel = nullptr);

/// Combines per-path score lists (outer index: meta-path, inner index:
/// candidate) with the given weights. Weights are normalized to sum to
/// one; non-positive total weight is an error. For kRankAverage the
/// combined value is the weighted mean rank (rank 0 = most outlying under
/// `measure`'s polarity) and smaller stays more-outlying.
Result<std::vector<double>> CombineScores(
    const std::vector<std::vector<double>>& per_path_scores,
    const std::vector<double>& weights, CombineMode mode,
    OutlierMeasure measure);

/// Polarity of the *combined* score: rank averaging always yields
/// smaller-is-more-outlying; weighted averaging preserves the measure's
/// native polarity.
inline bool CombinedSmallerIsMoreOutlying(CombineMode mode,
                                          OutlierMeasure measure) {
  return mode != CombineMode::kWeightedAverage ||
         SmallerIsMoreOutlying(measure);
}

}  // namespace netout

#endif  // NETOUT_MEASURE_SCORES_H_
