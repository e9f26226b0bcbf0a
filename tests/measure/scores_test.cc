#include "measure/scores.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "measure/connectivity.h"
#include "metapath/kernels.h"

namespace netout {
namespace {

TEST(MeasureNamesTest, RoundTrip) {
  for (OutlierMeasure m :
       {OutlierMeasure::kNetOut, OutlierMeasure::kPathSim,
        OutlierMeasure::kCosSim, OutlierMeasure::kLof}) {
    EXPECT_EQ(ParseOutlierMeasure(OutlierMeasureToString(m)).value(), m);
  }
  EXPECT_EQ(ParseOutlierMeasure("NetOut").value(), OutlierMeasure::kNetOut);
  EXPECT_EQ(ParseOutlierMeasure("cosine").value(), OutlierMeasure::kCosSim);
  EXPECT_FALSE(ParseOutlierMeasure("bogus").ok());
}

TEST(MeasurePolarityTest, OnlyLofIsLargerMoreOutlying) {
  EXPECT_TRUE(SmallerIsMoreOutlying(OutlierMeasure::kNetOut));
  EXPECT_TRUE(SmallerIsMoreOutlying(OutlierMeasure::kPathSim));
  EXPECT_TRUE(SmallerIsMoreOutlying(OutlierMeasure::kCosSim));
  EXPECT_FALSE(SmallerIsMoreOutlying(OutlierMeasure::kLof));
  // Rank-average flips LOF's polarity to smaller-first.
  EXPECT_TRUE(CombinedSmallerIsMoreOutlying(CombineMode::kRankAverage,
                                            OutlierMeasure::kLof));
  EXPECT_FALSE(CombinedSmallerIsMoreOutlying(CombineMode::kWeightedAverage,
                                             OutlierMeasure::kLof));
}

TEST(SumVectorsTest, AggregatesSupports) {
  std::vector<SparseVector> vectors = {
      SparseVector::FromSorted({0, 2}, {1.0, 2.0}),
      SparseVector::FromSorted({2, 4}, {3.0, 4.0}),
      SparseVector(),
  };
  const SparseVector sum = SumVectors(vectors);
  EXPECT_EQ(sum.nnz(), 3u);
  EXPECT_DOUBLE_EQ(sum.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(sum.ValueAt(2), 5.0);
  EXPECT_DOUBLE_EQ(sum.ValueAt(4), 4.0);
  EXPECT_TRUE(SumVectors(std::span<const SparseVector>()).empty());
}

class CombineFixture : public ::testing::Test {
 protected:
  // Two paths, three candidates.
  const std::vector<std::vector<double>> per_path_ = {
      {1.0, 2.0, 3.0},
      {30.0, 20.0, 10.0},
  };
};

TEST_F(CombineFixture, WeightedAverageNormalizesWeights) {
  const auto combined =
      CombineScores(per_path_, {1.0, 1.0}, CombineMode::kWeightedAverage,
                    OutlierMeasure::kNetOut)
          .value();
  EXPECT_DOUBLE_EQ(combined[0], 15.5);
  EXPECT_DOUBLE_EQ(combined[1], 11.0);
  EXPECT_DOUBLE_EQ(combined[2], 6.5);
  // Scaling all weights by a constant changes nothing.
  const auto scaled =
      CombineScores(per_path_, {10.0, 10.0}, CombineMode::kWeightedAverage,
                    OutlierMeasure::kNetOut)
          .value();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(combined[i], scaled[i]);
  }
}

TEST_F(CombineFixture, UnbalancedWeights) {
  // Weight 3 on path 0, 1 on path 1 (the paper's "venue: 2.0" style).
  const auto combined =
      CombineScores(per_path_, {3.0, 1.0}, CombineMode::kWeightedAverage,
                    OutlierMeasure::kNetOut)
          .value();
  EXPECT_DOUBLE_EQ(combined[0], 0.75 * 1.0 + 0.25 * 30.0);
}

TEST_F(CombineFixture, SinglePathIsIdentity) {
  const auto combined =
      CombineScores({per_path_[0]}, {2.0}, CombineMode::kWeightedAverage,
                    OutlierMeasure::kNetOut)
          .value();
  EXPECT_EQ(combined, per_path_[0]);
}

TEST_F(CombineFixture, RankAverageIsScaleFree) {
  // Path 0 ranks (ascending): c0=0, c1=1, c2=2. Path 1: c2=0, c1=1, c0=2.
  const auto combined = CombineScores(per_path_, {1.0, 1.0},
                                      CombineMode::kRankAverage,
                                      OutlierMeasure::kNetOut)
                            .value();
  EXPECT_DOUBLE_EQ(combined[0], 1.0);
  EXPECT_DOUBLE_EQ(combined[1], 1.0);
  EXPECT_DOUBLE_EQ(combined[2], 1.0);
  // Blowing up one path's scale does not change rank averaging.
  std::vector<std::vector<double>> scaled = per_path_;
  for (double& v : scaled[1]) v *= 1e9;
  const auto combined2 = CombineScores(scaled, {1.0, 1.0},
                                       CombineMode::kRankAverage,
                                       OutlierMeasure::kNetOut)
                             .value();
  EXPECT_EQ(combined, combined2);
}

TEST_F(CombineFixture, RankAverageRespectsLofPolarity) {
  // For LOF (larger = more outlying), rank 0 goes to the LARGEST score.
  const auto combined = CombineScores({{1.0, 5.0, 3.0}}, {1.0},
                                      CombineMode::kRankAverage,
                                      OutlierMeasure::kLof)
                            .value();
  EXPECT_DOUBLE_EQ(combined[1], 0.0);  // most outlying
  EXPECT_DOUBLE_EQ(combined[2], 1.0);
  EXPECT_DOUBLE_EQ(combined[0], 2.0);
}

TEST_F(CombineFixture, ValidationErrors) {
  EXPECT_FALSE(CombineScores({}, {}, CombineMode::kWeightedAverage,
                             OutlierMeasure::kNetOut)
                   .ok());
  EXPECT_FALSE(CombineScores(per_path_, {1.0},
                             CombineMode::kWeightedAverage,
                             OutlierMeasure::kNetOut)
                   .ok());  // weight count mismatch
  EXPECT_FALSE(CombineScores(per_path_, {0.0, 0.0},
                             CombineMode::kWeightedAverage,
                             OutlierMeasure::kNetOut)
                   .ok());  // zero total weight
  EXPECT_FALSE(CombineScores(per_path_, {-1.0, 2.0},
                             CombineMode::kWeightedAverage,
                             OutlierMeasure::kNetOut)
                   .ok());  // negative weight
  EXPECT_FALSE(CombineScores({{1.0}, {1.0, 2.0}}, {1.0, 1.0},
                             CombineMode::kWeightedAverage,
                             OutlierMeasure::kNetOut)
                   .ok());  // ragged scores
}

TEST_F(CombineFixture, RankAverageWithNanRanksLeastOutlying) {
  // Regression: a NaN score (possible from a custom similarity) used to
  // break the rank sort's strict weak ordering (UB). It must now rank
  // last — least outlying — deterministically.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto combined = CombineScores({{2.0, nan, 1.0}}, {1.0},
                                      CombineMode::kRankAverage,
                                      OutlierMeasure::kNetOut)
                            .value();
  EXPECT_DOUBLE_EQ(combined[2], 0.0);  // most outlying
  EXPECT_DOUBLE_EQ(combined[0], 1.0);
  EXPECT_DOUBLE_EQ(combined[1], 2.0);  // NaN last
}

TEST_F(CombineFixture, RankAverageAllNanDoesNotCrash) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto combined = CombineScores({{nan, nan, nan}}, {1.0},
                                      CombineMode::kRankAverage,
                                      OutlierMeasure::kNetOut)
                            .value();
  // All NaN: ranks fall back to index order.
  EXPECT_DOUBLE_EQ(combined[0], 0.0);
  EXPECT_DOUBLE_EQ(combined[1], 1.0);
  EXPECT_DOUBLE_EQ(combined[2], 2.0);
}

class ParallelScoringFixture : public ::testing::Test {
 protected:
  static std::vector<SparseVector> MakeVectors(std::size_t count,
                                               std::uint32_t seed) {
    std::vector<SparseVector> out;
    out.reserve(count);
    std::uint64_t state = seed;
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::uint32_t>(state >> 33);
    };
    for (std::size_t v = 0; v < count; ++v) {
      std::vector<std::pair<LocalId, double>> pairs;
      const std::size_t nnz = 1 + next() % 12;
      for (std::size_t i = 0; i < nnz; ++i) {
        pairs.emplace_back(next() % 64, 1.0 + next() % 7);
      }
      out.push_back(SparseVector::FromPairs(std::move(pairs)));
    }
    return out;
  }
};

TEST_F(ParallelScoringFixture, PoolGivesBitwiseIdenticalScores) {
  const auto candidates = MakeVectors(300, 7);
  const auto references = MakeVectors(120, 9);
  ThreadPool pool(4);
  for (OutlierMeasure measure :
       {OutlierMeasure::kNetOut, OutlierMeasure::kPathSim,
        OutlierMeasure::kCosSim}) {
    for (bool use_factored : {true, false}) {
      ScoreOptions serial;
      serial.measure = measure;
      serial.use_factored = use_factored;
      ScoreOptions parallel = serial;
      parallel.pool = &pool;
      const auto a =
          ComputeOutlierScores(candidates, references, serial).value();
      const auto b =
          ComputeOutlierScores(candidates, references, parallel).value();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        // Bitwise equality, not approximate: the parallel path must run
        // the identical per-candidate arithmetic.
        EXPECT_EQ(a[i], b[i]) << OutlierMeasureToString(measure)
                              << " candidate " << i;
      }
    }
  }
}

TEST(CustomMeasureTest, SumsTheUserSimilarity) {
  std::vector<SparseVector> references = {
      SparseVector::FromSorted({0}, {2.0}),
      SparseVector::FromSorted({1}, {3.0}),
  };
  std::vector<SparseVector> candidates = {
      SparseVector::FromSorted({0, 1}, {1.0, 1.0}),
      SparseVector::FromSorted({2}, {5.0}),
  };
  ScoreOptions options;
  options.measure = OutlierMeasure::kCustom;
  options.custom_similarity = [](SparseVecView a, SparseVecView b) {
    return Dot(a, b);  // raw connectivity as the user's similarity
  };
  const auto scores =
      ComputeOutlierScores(candidates, references, options).value();
  EXPECT_DOUBLE_EQ(scores[0], 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);  // disconnected -> most outlying
  EXPECT_TRUE(SmallerIsMoreOutlying(OutlierMeasure::kCustom));
}

TEST(CustomMeasureTest, MissingFunctionIsRejected) {
  std::vector<SparseVector> vectors = {SparseVector::FromSorted({0}, {1.0}),
                                       SparseVector::FromSorted({0}, {2.0})};
  ScoreOptions options;
  options.measure = OutlierMeasure::kCustom;
  auto result = ComputeOutlierScores(vectors, vectors, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CustomMeasureTest, NotReachableFromTheQueryLanguage) {
  auto result = ParseOutlierMeasure("custom");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("C++ API"), std::string::npos);
}

TEST(ComputeScoresDispatchTest, LofThroughTheCommonEntryPoint) {
  std::vector<SparseVector> references;
  for (int i = 0; i < 5; ++i) {
    references.push_back(
        SparseVector::FromPairs({{0, 1.0 * i}, {1, 1.0 * i}}));
  }
  std::vector<SparseVector> candidates = {
      SparseVector::FromPairs({{0, 2.0}, {1, 2.0}}),
      SparseVector::FromPairs({{0, 100.0}, {1, -100.0}}),
  };
  ScoreOptions options;
  options.measure = OutlierMeasure::kLof;
  options.lof_k = 2;
  const auto scores =
      ComputeOutlierScores(candidates, references, options).value();
  EXPECT_GT(scores[1], scores[0]);
}

// The factored NetOut gathers each candidate's dot product from a dense
// reference sum instead of merging against the harvested one. It must be
// bitwise the merge form, Dot(c, SumVectors(refs)) / Visibility(c), under
// either kernel variant's merge dot (DESIGN.md §10).
class NetOutGatherTest : public ::testing::TestWithParam<KernelVariant> {
 protected:
  static std::uint64_t Bits(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
  }

  double MergeDot(SparseVecView a, SparseVecView b) const {
    return GetKernelOps(GetParam())
        .dot(a.indices.data(), a.values.data(), a.indices.size(),
             b.indices.data(), b.values.data(), b.indices.size());
  }

  std::vector<double> MergeNetOut(
      const std::vector<SparseVector>& candidates,
      const std::vector<SparseVector>& references) const {
    const SparseVector sum = SumVectors(references);
    std::vector<double> scores;
    for (const SparseVector& cand : candidates) {
      const double visibility = Visibility(cand.View());
      scores.push_back(visibility == 0.0
                           ? 0.0
                           : MergeDot(cand.View(), sum.View()) / visibility);
    }
    return scores;
  }

  std::vector<double> MergeJoint(
      const std::vector<std::vector<SparseVector>>& candidates,
      const std::vector<std::vector<SparseVector>>& references,
      const std::vector<double>& weights) const {
    std::vector<SparseVector> sums;
    for (const auto& refs : references) sums.push_back(SumVectors(refs));
    std::vector<double> scores;
    for (std::size_t i = 0; i < candidates.front().size(); ++i) {
      double numerator = 0.0;
      double joint_visibility = 0.0;
      for (std::size_t p = 0; p < candidates.size(); ++p) {
        const SparseVecView phi = candidates[p][i].View();
        numerator += weights[p] * MergeDot(phi, sums[p].View());
        joint_visibility += weights[p] * L2NormSquared(phi);
      }
      scores.push_back(joint_visibility == 0.0 ? 0.0
                                               : numerator / joint_visibility);
    }
    return scores;
  }

  void ExpectBitwise(const std::vector<double>& actual,
                     const std::vector<double>& expected) const {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(Bits(actual[i]), Bits(expected[i]))
          << "candidate " << i << ": " << actual[i] << " vs " << expected[i];
    }
  }

  void CheckNetOut(const std::vector<SparseVector>& candidates,
                   const std::vector<SparseVector>& references) const {
    ScoreOptions options;
    options.measure = OutlierMeasure::kNetOut;
    const std::vector<double> expected = MergeNetOut(candidates, references);
    ExpectBitwise(ComputeOutlierScores(candidates, references, options).value(),
                  expected);
    ThreadPool pool(2);
    options.pool = &pool;
    ExpectBitwise(ComputeOutlierScores(candidates, references, options).value(),
                  expected);
    // The one-path joint score is the same quotient.
    ExpectBitwise(JointNetOutScores({AsViews(candidates)},
                                    {AsViews(references)}, {1.0})
                      .value(),
                  expected);
  }

  /// `count` random sorted vectors with up to `max_nnz` indices in
  /// [lo, hi); values mix integral path counts and fractional doubles.
  static std::vector<SparseVector> RandomVectors(Rng* rng, std::size_t count,
                                                 std::size_t max_nnz,
                                                 LocalId lo, LocalId hi) {
    std::vector<SparseVector> out;
    for (std::size_t v = 0; v < count; ++v) {
      std::vector<std::pair<LocalId, double>> pairs;
      const std::size_t nnz = rng->NextBounded(max_nnz + 1);
      for (std::size_t k = 0; k < nnz; ++k) {
        const auto index = static_cast<LocalId>(lo + rng->NextBounded(hi - lo));
        const double value =
            rng->NextBool(0.5) ? static_cast<double>(rng->NextInt(1, 50))
                               : rng->NextDouble() * 16.0 - 8.0;
        pairs.emplace_back(index, value);
      }
      SparseVector vec = SparseVector::FromPairs(std::move(pairs));
      vec.Prune();
      out.push_back(std::move(vec));
    }
    return out;
  }
};

TEST_P(NetOutGatherTest, RandomOverlap) {
  Rng rng(0x6A7E + static_cast<int>(GetParam()));
  for (int round = 0; round < 40; ++round) {
    const LocalId dim = static_cast<LocalId>(4 + rng.NextBounded(400));
    CheckNetOut(RandomVectors(&rng, 1 + rng.NextBounded(30), 40, 0, dim),
                RandomVectors(&rng, 1 + rng.NextBounded(30), 40, 0, dim));
  }
}

TEST_P(NetOutGatherTest, DisjointSupports) {
  Rng rng(11);
  CheckNetOut(RandomVectors(&rng, 12, 20, 0, 100),
              RandomVectors(&rng, 12, 20, 100, 200));
  CheckNetOut(RandomVectors(&rng, 12, 20, 100, 200),
              RandomVectors(&rng, 12, 20, 0, 100));
}

TEST_P(NetOutGatherTest, CandidateIndicesAboveReferenceMaximum) {
  Rng rng(12);
  CheckNetOut(RandomVectors(&rng, 20, 60, 0, 1000),
              RandomVectors(&rng, 8, 20, 0, 50));
  // Every candidate entry lies past the reference sum's dimension.
  CheckNetOut(RandomVectors(&rng, 8, 20, 500, 900),
              RandomVectors(&rng, 8, 20, 0, 50));
}

TEST_P(NetOutGatherTest, EmptyCandidates) {
  Rng rng(13);
  const std::vector<SparseVector> references =
      RandomVectors(&rng, 6, 20, 0, 80);
  CheckNetOut({}, references);
  CheckNetOut({SparseVector(), SparseVector()}, references);
  std::vector<SparseVector> mixed = RandomVectors(&rng, 6, 20, 0, 80);
  mixed.insert(mixed.begin() + 3, SparseVector());
  CheckNetOut(mixed, references);
  // All references empty too: a zero-dimension sum.
  CheckNetOut(mixed, {SparseVector()});
}

TEST_P(NetOutGatherTest, SingleReference) {
  Rng rng(14);
  for (int round = 0; round < 10; ++round) {
    CheckNetOut(RandomVectors(&rng, 15, 30, 0, 120),
                RandomVectors(&rng, 1, 30, 0, 120));
  }
}

TEST_P(NetOutGatherTest, CandidatesAreTheReferences) {
  Rng rng(15);
  for (int round = 0; round < 10; ++round) {
    const std::vector<SparseVector> vectors =
        RandomVectors(&rng, 25, 30, 0, 200);
    CheckNetOut(vectors, vectors);
  }
}

// A reference slot that sums to exactly zero is dropped by the harvest,
// so the merge never multiplies it; the gather must skip it too — an
// infinite candidate value there would otherwise turn the sum into NaN.
TEST_P(NetOutGatherTest, CancelledReferenceSlotIsSkipped) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<SparseVector> references = {
      SparseVector::FromSorted({1, 3, 5}, {2.0, 1.5, -0.0}),
      SparseVector::FromSorted({3, 6}, {-1.5, 4.0}),
  };
  const std::vector<SparseVector> candidates = {
      SparseVector::FromSorted({1, 3, 6}, {2.0, inf, 1.0}),
      SparseVector::FromSorted({3, 5}, {7.0, 3.0}),
      SparseVector::FromSorted({1, 6, 9}, {0.5, 0.25, 8.0}),
  };
  CheckNetOut(candidates, references);
}

TEST_P(NetOutGatherTest, JointScoresMatchMergeForm) {
  Rng rng(16);
  const std::vector<double> weights = {1.0, 0.5, 2.0};
  for (int round = 0; round < 10; ++round) {
    const std::size_t num_candidates = 1 + rng.NextBounded(20);
    const std::size_t num_references = 1 + rng.NextBounded(20);
    std::vector<std::vector<SparseVector>> candidates;
    std::vector<std::vector<SparseVector>> references;
    for (std::size_t p = 0; p < weights.size(); ++p) {
      const LocalId dim = static_cast<LocalId>(8 + rng.NextBounded(300));
      // Candidates reach past the references' range on some paths.
      candidates.push_back(RandomVectors(&rng, num_candidates, 30, 0,
                                         p == 1 ? 2 * dim : dim));
      references.push_back(
          round % 2 == 0
              ? RandomVectors(&rng, num_references, 30, 0, dim)
              : candidates.back());
    }
    std::vector<std::vector<SparseVecView>> cand_views;
    std::vector<std::vector<SparseVecView>> ref_views;
    for (std::size_t p = 0; p < weights.size(); ++p) {
      cand_views.push_back(AsViews(candidates[p]));
      ref_views.push_back(AsViews(references[p]));
    }
    ExpectBitwise(JointNetOutScores(cand_views, ref_views, weights).value(),
                  MergeJoint(candidates, references, weights));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothKernelVariants, NetOutGatherTest,
    ::testing::Values(KernelVariant::kScalar, KernelVariant::kAvx2),
    [](const ::testing::TestParamInfo<KernelVariant>& param_info) {
      return std::string(KernelVariantName(param_info.param));
    });

}  // namespace
}  // namespace netout
