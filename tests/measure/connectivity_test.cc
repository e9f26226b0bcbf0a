// Normalized connectivity, visibility and PathSim on the paper's
// Figure 2 example (authors Jim and Mary, meta-path A P V with the
// symmetric path A P V P A): path count 28, r(Jim, Mary) = 0.5,
// r(Mary, Jim) = 2.

#include "measure/connectivity.h"

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "metapath/metapath.h"
#include "metapath/traversal.h"

namespace netout {
namespace {

// Venue publication counts from Figure 2: Jim [4, 2, 6], Mary [2, 1, 3].
class Figure2Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder builder;
    const TypeId author = builder.AddVertexType("author").value();
    const TypeId paper = builder.AddVertexType("paper").value();
    const TypeId venue = builder.AddVertexType("venue").value();
    const EdgeTypeId writes =
        builder.AddEdgeType("writes", author, paper).value();
    const EdgeTypeId published =
        builder.AddEdgeType("published_in", paper, venue).value();

    const VertexRef jim = builder.AddVertex(author, "Jim").value();
    const VertexRef mary = builder.AddVertex(author, "Mary").value();
    const int jim_counts[] = {4, 2, 6};
    const int mary_counts[] = {2, 1, 3};
    int serial = 0;
    // Appended, not `"v" + std::to_string(v)`: GCC 12 at -O3 raises a
    // false -Wrestrict on that operator+ overload.
    const auto named = [](const char* prefix, int i) {
      return std::string(prefix).append(std::to_string(i));
    };
    for (int v = 0; v < 3; ++v) {
      const VertexRef venue_ref =
          builder.AddVertex(venue, named("v", v)).value();
      for (int p = 0; p < jim_counts[v]; ++p) {
        const VertexRef paper_ref =
            builder.AddVertex(paper, named("p", serial++)).value();
        ASSERT_TRUE(builder.AddEdge(writes, jim, paper_ref).ok());
        ASSERT_TRUE(builder.AddEdge(published, paper_ref, venue_ref).ok());
      }
      for (int p = 0; p < mary_counts[v]; ++p) {
        const VertexRef paper_ref =
            builder.AddVertex(paper, named("p", serial++)).value();
        ASSERT_TRUE(builder.AddEdge(writes, mary, paper_ref).ok());
        ASSERT_TRUE(builder.AddEdge(published, paper_ref, venue_ref).ok());
      }
    }
    hin_ = builder.Finish().value();

    const MetaPath path =
        MetaPath::Parse(hin_->schema(), "author.paper.venue").value();
    PathCounter counter(hin_);
    jim_ = counter
               .NeighborVector(hin_->FindVertex("author", "Jim").value(),
                               path)
               .value();
    mary_ = counter
                .NeighborVector(hin_->FindVertex("author", "Mary").value(),
                                path)
                .value();
  }

  HinPtr hin_;
  SparseVector jim_;
  SparseVector mary_;
};

TEST_F(Figure2Fixture, ConnectivityIsThePsymPathCount) {
  // 4*2 + 2*1 + 6*3 = 28 instantiations of (A P V P A).
  EXPECT_DOUBLE_EQ(Connectivity(jim_.View(), mary_.View()), 28.0);
  EXPECT_DOUBLE_EQ(Connectivity(mary_.View(), jim_.View()), 28.0);
}

TEST_F(Figure2Fixture, VisibilityIsSelfConnectivity) {
  EXPECT_DOUBLE_EQ(Visibility(jim_.View()), 16.0 + 4.0 + 36.0);   // 56
  EXPECT_DOUBLE_EQ(Visibility(mary_.View()), 4.0 + 1.0 + 9.0);    // 14
}

TEST_F(Figure2Fixture, NormalizedConnectivityMatchesFigure2) {
  EXPECT_DOUBLE_EQ(NormalizedConnectivity(jim_.View(), mary_.View()), 0.5);
  EXPECT_DOUBLE_EQ(NormalizedConnectivity(mary_.View(), jim_.View()), 2.0);
}

TEST_F(Figure2Fixture, SelfNormalizedConnectivityIsOne) {
  EXPECT_DOUBLE_EQ(NormalizedConnectivity(jim_.View(), jim_.View()), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedConnectivity(mary_.View(), mary_.View()), 1.0);
}

TEST_F(Figure2Fixture, PathSimIsSymmetric) {
  const double ab = PathSim(jim_.View(), mary_.View());
  const double ba = PathSim(mary_.View(), jim_.View());
  EXPECT_DOUBLE_EQ(ab, ba);
  EXPECT_DOUBLE_EQ(ab, 2.0 * 28.0 / (56.0 + 14.0));  // 0.8
}

TEST(ConnectivityEdgeCases, ZeroVisibilityFallback) {
  SparseVector empty;
  SparseVector unit = SparseVector::FromSorted({0}, {1.0});
  EXPECT_DOUBLE_EQ(NormalizedConnectivity(empty.View(), unit.View()), 0.0);
  EXPECT_DOUBLE_EQ(
      NormalizedConnectivity(empty.View(), unit.View(), 123.0), 123.0);
  // PathSim with one empty side is 0 via a zero numerator.
  EXPECT_DOUBLE_EQ(PathSim(empty.View(), unit.View()), 0.0);
  // Both empty: defined as 0.
  EXPECT_DOUBLE_EQ(PathSim(empty.View(), empty.View()), 0.0);
}

TEST(ConnectivityEdgeCases, AsymmetryRequiresDifferentVisibilities) {
  SparseVector a = SparseVector::FromSorted({0, 1}, {1.0, 2.0});
  SparseVector b = SparseVector::FromSorted({0, 1}, {2.0, 4.0});
  // r(a,b) = 10/5 = 2 ; r(b,a) = 10/20 = 0.5.
  EXPECT_DOUBLE_EQ(NormalizedConnectivity(a.View(), b.View()), 2.0);
  EXPECT_DOUBLE_EQ(NormalizedConnectivity(b.View(), a.View()), 0.5);
}

}  // namespace
}  // namespace netout
