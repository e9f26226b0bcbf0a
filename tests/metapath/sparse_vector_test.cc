#include "metapath/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace netout {
namespace {

TEST(SparseVectorTest, FromPairsSortsAndMerges) {
  const SparseVector v = SparseVector::FromPairs(
      {{5, 1.0}, {2, 2.0}, {5, 3.0}, {0, 1.0}});
  ASSERT_EQ(v.nnz(), 3u);
  EXPECT_EQ(v.indices()[0], 0u);
  EXPECT_EQ(v.indices()[1], 2u);
  EXPECT_EQ(v.indices()[2], 5u);
  EXPECT_DOUBLE_EQ(v.ValueAt(5), 4.0);
  EXPECT_DOUBLE_EQ(v.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(v.ValueAt(3), 0.0);  // absent
}

TEST(SparseVectorTest, EmptyVector) {
  SparseVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.nnz(), 0u);
  EXPECT_DOUBLE_EQ(v.ValueAt(0), 0.0);
  EXPECT_EQ(v.ToString(), "[]");
}

TEST(SparseVectorTest, FromSortedFastPath) {
  const SparseVector v = SparseVector::FromSorted({1, 4, 9}, {1.0, 2.0, 3.0});
  EXPECT_EQ(v.nnz(), 3u);
  EXPECT_DOUBLE_EQ(v.ValueAt(4), 2.0);
}

TEST(SparseVectorTest, PruneDropsZeros) {
  SparseVector v = SparseVector::FromPairs({{0, 1.0}, {1, 0.0}, {2, -1.0},
                                            {3, 1.0}, {3, -1.0}});
  v.Prune();
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(v.ValueAt(2), -1.0);
}

TEST(SparseVectorTest, ScaleMultipliesValues) {
  SparseVector v = SparseVector::FromSorted({0, 1}, {2.0, 3.0});
  v.Scale(0.5);
  EXPECT_DOUBLE_EQ(v.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(v.ValueAt(1), 1.5);
}

TEST(SparseKernelsTest, DotProduct) {
  const SparseVector a = SparseVector::FromSorted({0, 2, 5}, {1.0, 2.0, 3.0});
  const SparseVector b = SparseVector::FromSorted({2, 5, 7}, {4.0, 5.0, 6.0});
  EXPECT_DOUBLE_EQ(Dot(a.View(), b.View()), 2.0 * 4.0 + 3.0 * 5.0);
  EXPECT_DOUBLE_EQ(Dot(b.View(), a.View()), 23.0);  // symmetric
  SparseVector empty;
  EXPECT_DOUBLE_EQ(Dot(a.View(), empty.View()), 0.0);
}

TEST(SparseKernelsTest, DisjointDotIsZero) {
  const SparseVector a = SparseVector::FromSorted({0, 2}, {1.0, 1.0});
  const SparseVector b = SparseVector::FromSorted({1, 3}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(Dot(a.View(), b.View()), 0.0);
}

TEST(SparseKernelsTest, Norms) {
  const SparseVector v = SparseVector::FromSorted({1, 2}, {-3.0, 4.0});
  EXPECT_DOUBLE_EQ(Sum(v.View()), 1.0);
  EXPECT_DOUBLE_EQ(L1Norm(v.View()), 7.0);
  EXPECT_DOUBLE_EQ(L2NormSquared(v.View()), 25.0);
}

TEST(SparseKernelsTest, AddScaledMergesIndexSets) {
  const SparseVector a = SparseVector::FromSorted({0, 2}, {1.0, 2.0});
  const SparseVector b = SparseVector::FromSorted({1, 2}, {10.0, 20.0});
  const SparseVector sum = AddScaled(a.View(), b.View(), 0.5);
  EXPECT_EQ(sum.nnz(), 3u);
  EXPECT_DOUBLE_EQ(sum.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(sum.ValueAt(1), 5.0);
  EXPECT_DOUBLE_EQ(sum.ValueAt(2), 12.0);
}

TEST(SparseKernelsTest, CosineSimilarity) {
  const SparseVector a = SparseVector::FromSorted({0}, {2.0});
  const SparseVector b = SparseVector::FromSorted({0}, {5.0});
  EXPECT_DOUBLE_EQ(CosineSimilarity(a.View(), b.View()), 1.0);
  const SparseVector c = SparseVector::FromSorted({1}, {1.0});
  EXPECT_DOUBLE_EQ(CosineSimilarity(a.View(), c.View()), 0.0);
  SparseVector empty;
  EXPECT_DOUBLE_EQ(CosineSimilarity(a.View(), empty.View()), 0.0);
  // 45 degrees.
  const SparseVector d = SparseVector::FromSorted({0, 1}, {1.0, 1.0});
  EXPECT_NEAR(CosineSimilarity(a.View(), d.View()), std::sqrt(0.5), 1e-12);
}

TEST(DenseAccumulatorTest, AccumulatesAndHarvestsSorted) {
  DenseAccumulator acc;
  acc.Resize(10);
  acc.Add(7, 1.0);
  acc.Add(3, 2.0);
  acc.Add(7, 0.5);
  const SparseVector v = acc.Harvest();
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.indices()[0], 3u);
  EXPECT_EQ(v.indices()[1], 7u);
  EXPECT_DOUBLE_EQ(v.ValueAt(7), 1.5);
  // Harvest resets the workspace.
  EXPECT_TRUE(acc.IsEmpty());
  acc.Add(1, 1.0);
  const SparseVector v2 = acc.Harvest();
  EXPECT_EQ(v2.nnz(), 1u);
}

TEST(DenseAccumulatorTest, ZeroCrossingEntriesAreFiltered) {
  DenseAccumulator acc;
  acc.Resize(4);
  acc.Add(2, 1.0);
  acc.Add(2, -1.0);  // back to zero
  acc.Add(2, 0.0);   // re-touch at zero (duplicate touched entry)
  const SparseVector v = acc.Harvest();
  EXPECT_TRUE(v.empty());
  // Workspace is clean for reuse.
  acc.Add(2, 5.0);
  EXPECT_DOUBLE_EQ(acc.Harvest().ValueAt(2), 5.0);
}

TEST(DenseAccumulatorTest, ClearDiscards) {
  DenseAccumulator acc;
  acc.Resize(4);
  acc.Add(1, 2.0);
  acc.Clear();
  EXPECT_TRUE(acc.IsEmpty());
  EXPECT_TRUE(acc.Harvest().empty());
}

TEST(DenseAccumulatorTest, ResizeGrowsOnly) {
  DenseAccumulator acc;
  acc.Resize(4);
  acc.Resize(2);
  EXPECT_EQ(acc.dimension(), 4u);
  acc.Resize(8);
  EXPECT_EQ(acc.dimension(), 8u);
}

TEST(DenseAccumulatorTest, BothHarvestRegimesYieldIdenticalVectors) {
  // The dense regime starts at max(8, dimension/16) touched slots. The
  // same adds are harvested as they come (sparse regime below the
  // crossover, dense at or above it) and again after +1/-1 pairs on
  // other slots pushed the accumulator into the dense regime first;
  // the pairs land on exactly 0.0 and are dropped. Both must equal the
  // add-order sums bit for bit, at dimensions and occupancies on both
  // sides of the crossover (venue and term sizes among them).
  Rng rng(11);
  for (const std::size_t dimension : {64u, 640u, 2500u, 37000u}) {
    const std::size_t crossover = std::max<std::size_t>(8, dimension / 16);
    for (const std::size_t nnz :
         {crossover / 2, crossover - 1, crossover, 2 * crossover}) {
      // Distinct slots from the lower half, one to three adds each, in
      // shuffled order; the upper half is left for the padding pairs.
      std::vector<LocalId> slots(dimension / 2);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i] = static_cast<LocalId>(i);
      }
      std::vector<std::pair<LocalId, double>> adds;
      for (std::size_t k = 0; k < nnz; ++k) {
        std::swap(slots[k], slots[k + rng.NextBounded(slots.size() - k)]);
        const std::size_t times = 1 + rng.NextBounded(3);
        for (std::size_t t = 0; t < times; ++t) {
          adds.emplace_back(slots[k], rng.NextDouble() * 7.0 - 2.0);
        }
      }
      for (std::size_t i = adds.size(); i > 1; --i) {
        std::swap(adds[i - 1], adds[rng.NextBounded(i)]);
      }
      std::map<LocalId, double> sums;
      for (const auto& [index, value] : adds) sums[index] += value;

      DenseAccumulator as_is;
      as_is.Resize(dimension);
      DenseAccumulator padded;
      padded.Resize(dimension);
      for (std::size_t j = 0; j < crossover; ++j) {
        const LocalId slot = static_cast<LocalId>(dimension / 2 + j);
        padded.Add(slot, 1.0);
        padded.Add(slot, -1.0);
      }
      for (const auto& [index, value] : adds) {
        as_is.Add(index, value);
        padded.Add(index, value);
      }
      for (const SparseVector& got : {as_is.Harvest(), padded.Harvest()}) {
        ASSERT_EQ(got.nnz(), sums.size())
            << "dimension " << dimension << " nnz " << nnz;
        std::size_t i = 0;
        for (const auto& [index, value] : sums) {
          EXPECT_EQ(got.indices()[i], index);
          std::uint64_t want = 0;
          std::uint64_t have = 0;
          std::memcpy(&want, &value, sizeof(want));
          std::memcpy(&have, &got.values()[i], sizeof(have));
          EXPECT_EQ(want, have) << "dimension " << dimension << " nnz "
                                << nnz << " index " << index;
          ++i;
        }
      }
      EXPECT_TRUE(as_is.IsEmpty());
      EXPECT_TRUE(padded.IsEmpty());
    }
  }
}

}  // namespace
}  // namespace netout
