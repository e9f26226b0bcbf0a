// Property-based tests over randomized heterogeneous networks
// (parameterized by seed): structural identities the measures and the
// materialization engine must satisfy on *every* graph, not just the
// hand-built fixtures.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/builder.h"
#include "index/pm_index.h"
#include "measure/connectivity.h"
#include "measure/scores.h"
#include "measure/topk.h"
#include "metapath/evaluator.h"
#include "metapath/traversal.h"

namespace netout {
namespace {

struct RandomHin {
  HinPtr hin;
  TypeId author, paper, venue;
};

/// A random DBLP-shaped network: ~n authors/papers/venues with random
/// writes/published_in links (some parallel).
RandomHin MakeRandomHin(std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder;
  RandomHin out;
  out.author = builder.AddVertexType("author").value();
  out.paper = builder.AddVertexType("paper").value();
  out.venue = builder.AddVertexType("venue").value();
  const EdgeTypeId writes =
      builder.AddEdgeType("writes", out.author, out.paper).value();
  const EdgeTypeId published =
      builder.AddEdgeType("published_in", out.paper, out.venue).value();

  const std::size_t num_authors = 20 + rng.NextBounded(20);
  const std::size_t num_papers = 30 + rng.NextBounded(40);
  const std::size_t num_venues = 3 + rng.NextBounded(5);
  std::vector<VertexRef> authors, papers, venues;
  // Appended, not `"a" + std::to_string(i)`: GCC 12 at -O3 raises a
  // false -Wrestrict on that operator+ overload.
  const auto named = [](const char* prefix, std::size_t i) {
    return std::string(prefix).append(std::to_string(i));
  };
  for (std::size_t i = 0; i < num_authors; ++i) {
    authors.push_back(builder.AddVertex(out.author, named("a", i)).value());
  }
  for (std::size_t i = 0; i < num_papers; ++i) {
    papers.push_back(builder.AddVertex(out.paper, named("p", i)).value());
  }
  for (std::size_t i = 0; i < num_venues; ++i) {
    venues.push_back(builder.AddVertex(out.venue, named("v", i)).value());
  }
  for (const VertexRef& paper : papers) {
    const std::size_t author_count = 1 + rng.NextBounded(4);
    for (std::size_t i = 0; i < author_count; ++i) {
      EXPECT_TRUE(builder
                      .AddEdge(writes,
                               authors[rng.NextBounded(num_authors)], paper)
                      .ok());
    }
    // ~10% of papers carry a parallel venue link (multiplicity 2).
    const std::uint32_t multiplicity = rng.NextBool(0.1) ? 2 : 1;
    EXPECT_TRUE(builder
                    .AddEdge(published, paper,
                             venues[rng.NextBounded(num_venues)],
                             multiplicity)
                    .ok());
  }
  out.hin = builder.Finish().value();
  return out;
}

class HinPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// |π_P(a, b)| == |π_P⁻¹(b, a)| — reversal preserves path instances.
TEST_P(HinPropertyTest, PathCountReversalSymmetry) {
  const RandomHin random = MakeRandomHin(GetParam());
  PathCounter counter(random.hin);
  const MetaPath apv =
      MetaPath::Parse(random.hin->schema(), "author.paper.venue").value();
  const MetaPath vpa = apv.Reverse();
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 10; ++trial) {
    const VertexRef a{random.author,
                      static_cast<LocalId>(rng.NextBounded(
                          random.hin->NumVertices(random.author)))};
    const SparseVector forward = counter.NeighborVector(a, apv).value();
    for (std::size_t i = 0; i < forward.nnz(); ++i) {
      const VertexRef v{random.venue, forward.indices()[i]};
      const SparseVector backward = counter.NeighborVector(v, vpa).value();
      EXPECT_DOUBLE_EQ(backward.ValueAt(a.local), forward.values()[i]);
    }
  }
}

// Visibility(φ_P(v)) equals the traversed self path count of Psym, and
// Dot(φ(a), φ(b)) equals the traversed (a -> b) Psym path count.
TEST_P(HinPropertyTest, ConnectivityFactorization) {
  const RandomHin random = MakeRandomHin(GetParam());
  PathCounter counter(random.hin);
  const MetaPath apv =
      MetaPath::Parse(random.hin->schema(), "author.paper.venue").value();
  const MetaPath sym = apv.Symmetric();
  Rng rng(GetParam() ^ 0x1234);
  const std::size_t n = random.hin->NumVertices(random.author);
  for (int trial = 0; trial < 8; ++trial) {
    const VertexRef a{random.author,
                      static_cast<LocalId>(rng.NextBounded(n))};
    const VertexRef b{random.author,
                      static_cast<LocalId>(rng.NextBounded(n))};
    const SparseVector phi_a = counter.NeighborVector(a, apv).value();
    const SparseVector phi_b = counter.NeighborVector(b, apv).value();
    const SparseVector sym_a = counter.NeighborVector(a, sym).value();
    EXPECT_DOUBLE_EQ(Visibility(phi_a.View()), sym_a.ValueAt(a.local));
    EXPECT_DOUBLE_EQ(Connectivity(phi_a.View(), phi_b.View()),
                     sym_a.ValueAt(b.local));
  }
}

// Cauchy-Schwarz: ψ(a,b)² <= ψ(a,a) ψ(b,b).
TEST_P(HinPropertyTest, ConnectivityCauchySchwarz) {
  const RandomHin random = MakeRandomHin(GetParam());
  PathCounter counter(random.hin);
  const MetaPath apv =
      MetaPath::Parse(random.hin->schema(), "author.paper.venue").value();
  const std::size_t n = random.hin->NumVertices(random.author);
  std::vector<SparseVector> vectors;
  for (LocalId v = 0; v < n; ++v) {
    vectors.push_back(
        counter.NeighborVector(VertexRef{random.author, v}, apv).value());
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double psi = Connectivity(vectors[i].View(), vectors[j].View());
      EXPECT_LE(psi * psi, Visibility(vectors[i].View()) *
                                   Visibility(vectors[j].View()) +
                               1e-6);
    }
  }
}

// Equation (1)'s factored NetOut equals the naive pairwise sum.
TEST_P(HinPropertyTest, FactoredNetOutEqualsNaive) {
  const RandomHin random = MakeRandomHin(GetParam());
  PathCounter counter(random.hin);
  const MetaPath apv =
      MetaPath::Parse(random.hin->schema(), "author.paper.venue").value();
  const std::size_t n = random.hin->NumVertices(random.author);
  std::vector<SparseVector> vectors;
  for (LocalId v = 0; v < n; ++v) {
    vectors.push_back(
        counter.NeighborVector(VertexRef{random.author, v}, apv).value());
  }
  ScoreOptions factored;
  factored.use_factored = true;
  ScoreOptions naive;
  naive.use_factored = false;
  const auto fast = ComputeOutlierScores(vectors, vectors, factored).value();
  const auto slow = ComputeOutlierScores(vectors, vectors, naive).value();
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-6 * (1.0 + std::abs(slow[i])));
  }
}

// Self normalized connectivity is 1 for every non-isolated vertex, so a
// vertex always contributes exactly 1 to its own NetOut when Sc == Sr.
TEST_P(HinPropertyTest, SelfNormalizedConnectivityIsOne) {
  const RandomHin random = MakeRandomHin(GetParam());
  PathCounter counter(random.hin);
  const MetaPath apv =
      MetaPath::Parse(random.hin->schema(), "author.paper.venue").value();
  for (LocalId v = 0; v < random.hin->NumVertices(random.author); ++v) {
    const SparseVector phi =
        counter.NeighborVector(VertexRef{random.author, v}, apv).value();
    if (phi.empty()) continue;
    EXPECT_DOUBLE_EQ(NormalizedConnectivity(phi.View(), phi.View()), 1.0);
  }
}

// PM-index decomposition evaluation agrees with raw traversal on every
// vertex for both even- and odd-length meta-paths.
TEST_P(HinPropertyTest, IndexedEvaluationEqualsTraversal) {
  const RandomHin random = MakeRandomHin(GetParam());
  const auto pm = PmIndex::Build(*random.hin).value();
  NeighborVectorEvaluator baseline(random.hin, nullptr);
  NeighborVectorEvaluator indexed(random.hin, pm.get());
  for (const char* path_text :
       {"author.paper.venue", "author.paper.venue.paper",
        "author.paper.venue.paper.author", "author.paper"}) {
    const MetaPath path =
        MetaPath::Parse(random.hin->schema(), path_text).value();
    for (LocalId v = 0; v < random.hin->NumVertices(random.author); ++v) {
      const VertexRef vertex{random.author, v};
      const SparseVector a = baseline.Evaluate(vertex, path, nullptr).value();
      const SparseVector b = indexed.Evaluate(vertex, path, nullptr).value();
      ASSERT_EQ(a.nnz(), b.nnz()) << path_text << " vertex " << v;
      for (std::size_t i = 0; i < a.nnz(); ++i) {
        EXPECT_EQ(a.indices()[i], b.indices()[i]);
        EXPECT_DOUBLE_EQ(a.values()[i], b.values()[i]);
      }
    }
  }
}

// SelectTopK returns the sorted k-prefix of the fully sorted order.
TEST_P(HinPropertyTest, TopKIsPrefixOfFullSort) {
  Rng rng(GetParam());
  std::vector<double> scores;
  for (int i = 0; i < 200; ++i) {
    scores.push_back(rng.NextDouble() * 100.0);
  }
  const auto full = SelectTopK(scores, scores.size(), true);
  for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{50}}) {
    const auto top = SelectTopK(scores, k, true);
    ASSERT_EQ(top.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(top[i], full[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HinPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace netout
