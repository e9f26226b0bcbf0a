// Path-instance counting on the paper's Figure 1(b) instantiated network:
// authors Ava, Liam, Zoe with |π_Pca(Ava, Liam)| = 1,
// |π_Pca(Liam, Zoe)| = 2, φ_Pca(Zoe) = [Ava:1, Liam:2, Zoe:5] and
// φ_Pv(Zoe) = [ICDE:2, KDD:3].

#include "metapath/traversal.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/random.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/segment.h"
#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

class Figure1Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder builder;
    author_ = builder.AddVertexType("author").value();
    paper_ = builder.AddVertexType("paper").value();
    venue_ = builder.AddVertexType("venue").value();
    builder.AddEdgeType("writes", author_, paper_).CheckOk();
    builder.AddEdgeType("published_in", paper_, venue_).CheckOk();

    // Papers (authors -> venue):
    //   p1: Ava, Liam        -> KDD
    //   p2: Ava, Zoe         -> ICDE
    //   p3: Zoe, Liam        -> KDD
    //   p4: Zoe, Liam        -> KDD
    //   p5: Zoe              -> ICDE
    //   p6: Zoe              -> KDD
    auto add_paper = [&](const char* name,
                         std::initializer_list<const char*> authors,
                         const char* venue) {
      for (const char* a : authors) {
        ASSERT_TRUE(builder.AddEdgeByName("writes", a, name).ok());
      }
      ASSERT_TRUE(builder.AddEdgeByName("published_in", name, venue).ok());
    };
    add_paper("p1", {"Ava", "Liam"}, "KDD");
    add_paper("p2", {"Ava", "Zoe"}, "ICDE");
    add_paper("p3", {"Zoe", "Liam"}, "KDD");
    add_paper("p4", {"Zoe", "Liam"}, "KDD");
    add_paper("p5", {"Zoe"}, "ICDE");
    add_paper("p6", {"Zoe"}, "KDD");
    hin_ = builder.Finish().value();

    pca_ = MetaPath::Parse(hin_->schema(), "author.paper.author").value();
    pv_ = MetaPath::Parse(hin_->schema(), "author.paper.venue").value();
  }

  VertexRef Author(const char* name) {
    return hin_->FindVertex("author", name).value();
  }
  double Count(const SparseVector& vec, const char* author_name) {
    return vec.ValueAt(Author(author_name).local);
  }

  TypeId author_, paper_, venue_;
  HinPtr hin_;
  MetaPath pca_, pv_;
};

TEST_F(Figure1Fixture, CoauthorPathCountsMatchFigure1) {
  PathCounter counter(hin_);
  const SparseVector zoe = counter.NeighborVector(Author("Zoe"), pca_).value();
  EXPECT_DOUBLE_EQ(Count(zoe, "Ava"), 1.0);
  EXPECT_DOUBLE_EQ(Count(zoe, "Liam"), 2.0);
  EXPECT_DOUBLE_EQ(Count(zoe, "Zoe"), 5.0);  // her 5 papers

  const SparseVector ava = counter.NeighborVector(Author("Ava"), pca_).value();
  EXPECT_DOUBLE_EQ(Count(ava, "Liam"), 1.0);
  EXPECT_DOUBLE_EQ(Count(ava, "Zoe"), 1.0);
  EXPECT_DOUBLE_EQ(Count(ava, "Ava"), 2.0);
}

TEST_F(Figure1Fixture, VenueNeighborVectorMatchesFigure1) {
  PathCounter counter(hin_);
  const SparseVector zoe = counter.NeighborVector(Author("Zoe"), pv_).value();
  const VertexRef icde = hin_->FindVertex("venue", "ICDE").value();
  const VertexRef kdd = hin_->FindVertex("venue", "KDD").value();
  EXPECT_DOUBLE_EQ(zoe.ValueAt(icde.local), 2.0);
  EXPECT_DOUBLE_EQ(zoe.ValueAt(kdd.local), 3.0);
  EXPECT_EQ(zoe.nnz(), 2u);
}

TEST_F(Figure1Fixture, NeighborhoodIsTheSupport) {
  PathCounter counter(hin_);
  const std::vector<VertexRef> coauthors =
      counter.Neighborhood(Author("Zoe"), pca_).value();
  // N_Pca(Zoe) = {Ava, Liam, Zoe} (self included via her own papers).
  EXPECT_EQ(coauthors.size(), 3u);
  for (const VertexRef& v : coauthors) {
    EXPECT_EQ(v.type, author_);
  }
}

TEST_F(Figure1Fixture, IdentityPathYieldsUnitVector) {
  PathCounter counter(hin_);
  const MetaPath identity =
      MetaPath::Create(hin_->schema(), {author_}).value();
  const SparseVector vec =
      counter.NeighborVector(Author("Ava"), identity).value();
  EXPECT_EQ(vec.nnz(), 1u);
  EXPECT_DOUBLE_EQ(vec.ValueAt(Author("Ava").local), 1.0);
}

TEST_F(Figure1Fixture, FourHopSymmetricPath) {
  PathCounter counter(hin_);
  // (A P V P A): Zoe—venue—author path counts. Zoe to Ava via venues:
  // Zoe's [ICDE:2, KDD:3] dot Ava's [ICDE:1, KDD:1] = 5.
  const MetaPath sym = pv_.Symmetric();
  const SparseVector zoe = counter.NeighborVector(Author("Zoe"), sym).value();
  EXPECT_DOUBLE_EQ(Count(zoe, "Ava"), 5.0);
  EXPECT_DOUBLE_EQ(Count(zoe, "Zoe"), 13.0);  // 2*2 + 3*3
}

TEST_F(Figure1Fixture, PropagateAppliesFrontierWeights) {
  PathCounter counter(hin_);
  // Frontier {Ava: 2} through (A P V) doubles Ava's venue counts.
  SparseVector frontier =
      SparseVector::FromSorted({Author("Ava").local}, {2.0});
  const SparseVector out = counter.Propagate(frontier, pv_).value();
  const VertexRef kdd = hin_->FindVertex("venue", "KDD").value();
  const VertexRef icde = hin_->FindVertex("venue", "ICDE").value();
  EXPECT_DOUBLE_EQ(out.ValueAt(kdd.local), 2.0);
  EXPECT_DOUBLE_EQ(out.ValueAt(icde.local), 2.0);
}

TEST_F(Figure1Fixture, ErrorsOnTypeMismatchAndRange) {
  PathCounter counter(hin_);
  const VertexRef kdd = hin_->FindVertex("venue", "KDD").value();
  EXPECT_EQ(counter.NeighborVector(kdd, pca_).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(counter.NeighborVector(VertexRef{author_, 99}, pca_)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(Figure1Fixture, IsolatedVertexYieldsEmptyVector) {
  GraphBuilder builder;
  const TypeId a = builder.AddVertexType("author").value();
  const TypeId p = builder.AddVertexType("paper").value();
  builder.AddEdgeType("writes", a, p).CheckOk();
  builder.AddVertex(a, "Hermit").CheckOk();
  const HinPtr hin = builder.Finish().value();
  PathCounter counter(hin);
  const MetaPath ap = MetaPath::Parse(hin->schema(), "author.paper").value();
  const SparseVector vec =
      counter.NeighborVector(hin->FindVertex("author", "Hermit").value(), ap)
          .value();
  EXPECT_TRUE(vec.empty());
}

// -------------------------------------------------------------------
// The fused single-vertex path against a hop-by-hop PropagateStep chain
// -------------------------------------------------------------------

/// Authors, papers (with a paper->paper citation relation) and venues,
/// with random multiplicities, repeated links (coalesced into counts)
/// and a few isolated vertices of every type.
HinPtr MakeRandomGraph(std::uint64_t seed) {
  GraphBuilder builder;
  const TypeId author = builder.AddVertexType("author").value();
  const TypeId paper = builder.AddVertexType("paper").value();
  const TypeId venue = builder.AddVertexType("venue").value();
  const EdgeTypeId writes = builder.AddEdgeType("writes", author, paper).value();
  const EdgeTypeId in = builder.AddEdgeType("in", paper, venue).value();
  const EdgeTypeId cites = builder.AddEdgeType("cites", paper, paper).value();
  const auto vertices = [&](TypeId type, const char* prefix, int n) {
    std::vector<VertexRef> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(
          builder.AddVertex(type, prefix + std::to_string(i)).value());
    }
    return out;
  };
  // The last two of each type get no links.
  const std::vector<VertexRef> authors = vertices(author, "a", 24);
  const std::vector<VertexRef> papers = vertices(paper, "p", 60);
  const std::vector<VertexRef> venues = vertices(venue, "v", 9);
  Rng rng(seed);
  const auto pick = [&rng](const std::vector<VertexRef>& from) {
    return from[rng.NextBounded(from.size() - 2)];
  };
  const auto count = [&rng] {
    return static_cast<std::uint32_t>(1 + rng.NextBounded(3));
  };
  for (int i = 0; i < 150; ++i) {
    EXPECT_TRUE(builder.AddEdge(writes, pick(authors), pick(papers), count())
                    .ok());
  }
  for (std::size_t i = 0; i + 2 < papers.size(); ++i) {
    EXPECT_TRUE(builder.AddEdge(in, papers[i], pick(venues), count()).ok());
  }
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(builder.AddEdge(cites, pick(papers), pick(papers), count())
                    .ok());
  }
  // A repeated link: coalesced with any earlier one into a larger count.
  EXPECT_TRUE(builder.AddEdge(writes, authors[0], papers[0], 2).ok());
  EXPECT_TRUE(builder.AddEdge(writes, authors[0], papers[0], 1).ok());
  return builder.Finish().value();
}

/// Random walks over the schema: every length 1..5, several per length.
std::vector<std::vector<EdgeStep>> RandomStepLists(const Schema& schema,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<EdgeStep>> out;
  for (std::size_t length = 1; length <= 5; ++length) {
    for (int k = 0; k < 6; ++k) {
      TypeId at = static_cast<TypeId>(
          rng.NextBounded(schema.num_vertex_types()));
      std::vector<EdgeStep> steps;
      while (steps.size() < length) {
        const std::vector<EdgeStep> next = schema.StepsFrom(at);
        if (next.empty()) break;
        steps.push_back(next[rng.NextBounded(next.size())]);
        at = schema.StepTarget(steps.back());
      }
      if (steps.size() == length) out.push_back(steps);
    }
  }
  return out;
}

void ExpectBitwiseEqual(const SparseVector& expected,
                        const SparseVector& actual, const std::string& what) {
  ASSERT_EQ(expected.nnz(), actual.nnz()) << what;
  for (std::size_t i = 0; i < expected.nnz(); ++i) {
    ASSERT_EQ(expected.indices()[i], actual.indices()[i]) << what;
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &expected.values()[i], sizeof(want));
    std::memcpy(&got, &actual.values()[i], sizeof(got));
    ASSERT_EQ(want, got) << what << " at index " << expected.indices()[i];
  }
}

/// Every start vertex x every random step list x several start weights:
/// NeighborVector (and Propagate of the singleton frontier) equals a
/// PropagateStep chain from the same singleton, bit for bit.
void ExpectFusedMatchesHopByHop(const HinPtr& hin, std::uint64_t seed) {
  PathCounter fused(hin);
  PathCounter reference(hin);
  const Schema& schema = hin->schema();
  for (const std::vector<EdgeStep>& steps : RandomStepLists(schema, seed)) {
    const TypeId source = schema.StepSource(steps.front());
    std::vector<TypeId> types = {source};
    for (const EdgeStep& step : steps) types.push_back(schema.StepTarget(step));
    const Result<MetaPath> path = MetaPath::Create(schema, types);
    for (LocalId v = 0; v < hin->NumVertices(source); ++v) {
      for (const double weight : {1.0, 2.5, -0.75, 1.0 / 3.0}) {
        SparseVector expected = SparseVector::FromSorted({v}, {weight});
        for (const EdgeStep& step : steps) {
          expected = reference.PropagateStep(expected, step);
        }
        const std::string what = "seed " + std::to_string(seed) +
                                 " length " + std::to_string(steps.size()) +
                                 " vertex " + std::to_string(v) + " weight " +
                                 std::to_string(weight);
        ExpectBitwiseEqual(expected,
                           fused.NeighborVector(v, steps, weight).value(),
                           what);
        // A MetaPath resolves each type pair to one relation, which need
        // not be the walked one when two relations connect the pair.
        if (path.ok() && std::equal(steps.begin(), steps.end(),
                                    path->steps().begin(),
                                    path->steps().end())) {
          ExpectBitwiseEqual(
              expected,
              fused.Propagate(SparseVector::FromSorted({v}, {weight}), *path)
                  .value(),
              what + " (Propagate)");
          if (weight == 1.0) {
            ExpectBitwiseEqual(
                expected,
                fused.NeighborVector(VertexRef{source, v}, *path).value(),
                what + " (MetaPath)");
          }
        }
      }
    }
  }
}

TEST(FusedTraversalTest, MatchesHopByHopOnRootGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ExpectFusedMatchesHopByHop(MakeRandomGraph(seed), seed);
  }
}

TEST(FusedTraversalTest, MatchesHopByHopOnOverlayPatchedRows) {
  const HinPtr root = MakeRandomGraph(4);
  MutableHin graph(root);
  // Patched rows: new links (one onto a new vertex), a topped-up
  // multiplicity, deleted links and a tombstoned vertex.
  ASSERT_TRUE(graph.AddEdge("writes", "a1", "p_new", 2, true).ok());
  ASSERT_TRUE(graph.AddEdge("cites", "p_new", "p3", 3).ok());
  ASSERT_TRUE(graph.AddEdge("writes", "a0", "p0", 1).ok());
  ASSERT_TRUE(graph.AddEdge("in", "p_new", "v2", 1).ok());
  const VertexRef a0 = root->FindVertex("author", "a0").value();
  const EdgeStep writes{0, Direction::kForward};
  for (const CsrEntry& entry : root->StepRow(writes, a0.local)) {
    if (entry.neighbor == 0) continue;  // keep the topped-up link
    ASSERT_TRUE(graph
                    .DeleteEdge("writes", "a0",
                                root->VertexName(VertexRef{
                                    root->schema().StepTarget(writes),
                                    entry.neighbor}))
                    .ok());
    break;
  }
  ASSERT_TRUE(graph.DeleteVertex("paper", "p5").ok());
  ASSERT_TRUE(graph.Commit().ok());
  const HinPtr overlay = graph.Snapshot().hin;
  ASSERT_TRUE(overlay->has_overlay());
  ExpectFusedMatchesHopByHop(overlay, 4);
}

TEST(FusedTraversalTest, MatchesHopByHopOnShardedRoot) {
  const ScopedTempDir tmp("netout_traversal");
  const HinPtr root = MakeRandomGraph(5);
  ShardWriterOptions options;
  options.target_segment_bytes = 256;  // many small segments
  ASSERT_TRUE(BuildShardedHin(*root, tmp.File("shards"), options).ok());
  const HinPtr sharded = LoadShardedHin(tmp.File("shards")).value();
  ASSERT_TRUE(sharded->is_sharded());
  ExpectFusedMatchesHopByHop(sharded, 5);
}

TEST(FusedTraversalTest, ZeroStartWeightYieldsEmptyVector) {
  // Every first-hop product is exactly 0.0 and dropped, as Harvest
  // drops zero slots on the hop-by-hop path.
  const HinPtr hin = MakeRandomGraph(6);
  PathCounter counter(hin);
  const EdgeStep writes{0, Direction::kForward};
  const EdgeStep in{1, Direction::kForward};
  const std::vector<EdgeStep> one = {writes};
  const std::vector<EdgeStep> two = {writes, in};
  EXPECT_TRUE(counter.NeighborVector(0, one, 0.0).value().empty());
  EXPECT_TRUE(counter.NeighborVector(0, two, 0.0).value().empty());
}

TEST_F(Figure1Fixture, TrippedTokenStopsEveryPathLength) {
  PathCounter counter(hin_);
  CancellationToken token;
  token.RequestCancel();
  counter.SetStopToken(&token);
  // author.paper.venue.paper.author.paper: lengths 1..5 cover the
  // single raw hop, the fused pair and the hop-by-hop tail after it.
  const MetaPath five = MetaPath::Parse(hin_->schema(),
                                        "author.paper.venue.paper.author.paper")
                            .value();
  const VertexRef zoe = Author("Zoe");
  for (std::size_t length = 1; length <= 5; ++length) {
    const auto steps = std::span<const EdgeStep>(five.steps()).first(length);
    EXPECT_EQ(counter.NeighborVector(zoe.local, steps).status().code(),
              StatusCode::kCancelled)
        << "length " << length;
  }
  EXPECT_EQ(counter.NeighborVector(zoe, pca_).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(counter
                .Propagate(SparseVector::FromSorted({zoe.local, 1}, {1.0, 1.0}),
                           pv_)
                .status()
                .code(),
            StatusCode::kCancelled);
  // One hop is the stop granularity: PropagateStep itself never polls.
  EXPECT_FALSE(counter
                   .PropagateStep(SparseVector::FromSorted({zoe.local}, {1.0}),
                                  five.steps()[0])
                   .empty());
  // A length-0 path does no hop, so there is nothing to stop.
  EXPECT_TRUE(counter.NeighborVector(zoe.local, {}).ok());

  counter.SetStopToken(nullptr);
  EXPECT_TRUE(counter.NeighborVector(zoe, five).ok());
}

}  // namespace
}  // namespace netout
