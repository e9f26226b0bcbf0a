#include "graph/delta.h"


#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/io.h"
#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

/// Every (edge type, direction) pair of the schema.
std::vector<EdgeStep> AllSteps(const Schema& schema) {
  std::vector<EdgeStep> steps;
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    steps.push_back(EdgeStep{e, Direction::kForward});
    steps.push_back(EdgeStep{e, Direction::kReverse});
  }
  return steps;
}

/// Bitwise row-by-row equality of two snapshots' adjacency views.
void ExpectSameAdjacency(const HinPtr& a, const HinPtr& b) {
  const Schema& schema = a->schema();
  for (const EdgeStep& step : AllSteps(schema)) {
    const TypeId source = schema.StepSource(step);
    ASSERT_EQ(a->NumVertices(source), b->NumVertices(source));
    for (LocalId row = 0; row < a->NumVertices(source); ++row) {
      const auto row_a = a->StepRow(step, row);
      const auto row_b = b->StepRow(step, row);
      ASSERT_EQ(row_a.size(), row_b.size())
          << "edge type " << static_cast<int>(step.edge_type) << " row "
          << row;
      for (std::size_t i = 0; i < row_a.size(); ++i) {
        EXPECT_EQ(row_a[i].neighbor, row_b[i].neighbor);
        EXPECT_EQ(row_a[i].count, row_b[i].count);
      }
    }
    EXPECT_EQ(a->StepSketch(step), b->StepSketch(step));
  }
}

class DeltaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder builder;
    author_ = builder.AddVertexType("author").value();
    paper_ = builder.AddVertexType("paper").value();
    venue_ = builder.AddVertexType("venue").value();
    builder.AddEdgeType("writes", author_, paper_).CheckOk();
    builder.AddEdgeType("published_in", paper_, venue_).CheckOk();
    ASSERT_TRUE(builder.AddEdgeByName("writes", "Ava", "P1").ok());
    ASSERT_TRUE(builder.AddEdgeByName("writes", "Liam", "P1").ok());
    ASSERT_TRUE(builder.AddEdgeByName("writes", "Ava", "P2").ok());
    ASSERT_TRUE(builder.AddEdgeByName("published_in", "P1", "KDD").ok());
    ASSERT_TRUE(builder.AddEdgeByName("published_in", "P2", "ICDE").ok());
    root_ = builder.Finish().value();
    writes_ = root_->schema().ResolveStep(author_, paper_).value();
  }

  TypeId author_, paper_, venue_;
  EdgeStep writes_;
  HinPtr root_;
};

TEST_F(DeltaFixture, RootSnapshotIsEpochZero) {
  MutableHin graph(root_);
  const HinSnapshot snap = graph.Snapshot();
  EXPECT_EQ(snap.epoch, 0u);
  EXPECT_EQ(snap.hin.get(), root_.get());
  EXPECT_FALSE(snap.hin->has_overlay());
  EXPECT_EQ(graph.PendingOps(), 0u);
}

TEST_F(DeltaFixture, EmptyCommitDoesNotBumpTheEpoch) {
  MutableHin graph(root_);
  const CommitResult result = graph.Commit().value();
  EXPECT_EQ(result.snapshot.epoch, 0u);
  EXPECT_EQ(result.snapshot.hin.get(), root_.get());
  EXPECT_TRUE(result.summary.empty());
}

TEST_F(DeltaFixture, AddEdgePublishesANewImmutableEpoch) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Liam", "P2").ok());
  EXPECT_EQ(graph.PendingOps(), 1u);
  // Staged only: the published snapshot is untouched until Commit.
  EXPECT_EQ(graph.Snapshot().epoch, 0u);

  const CommitResult result = graph.Commit().value();
  EXPECT_EQ(result.snapshot.epoch, 1u);
  EXPECT_EQ(result.summary.edges_added, 1u);
  EXPECT_EQ(graph.PendingOps(), 0u);
  const HinPtr after = result.snapshot.hin;
  ASSERT_TRUE(after->has_overlay());
  EXPECT_EQ(after->epoch(), 1u);
  EXPECT_EQ(after->TotalEdges(), root_->TotalEdges() + 1);

  const LocalId liam = after->FindVertex(author_, "Liam")->local;
  const LocalId p2 = after->FindVertex(paper_, "P2")->local;
  const auto row = after->StepRow(writes_, liam);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_TRUE(row[0].neighbor == p2 || row[1].neighbor == p2);
  // The root snapshot is immutable: Liam still has one paper there.
  EXPECT_EQ(root_->StepRow(writes_, liam).size(), 1u);
}

TEST_F(DeltaFixture, ParallelEdgesCoalesceIntoMultiplicity) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Ava", "P1", /*count=*/2).ok());
  ASSERT_TRUE(graph.AddEdge("writes", "Ava", "P1").ok());
  const HinPtr after = graph.Commit().value().snapshot.hin;
  const LocalId ava = after->FindVertex(author_, "Ava")->local;
  const LocalId p1 = after->FindVertex(paper_, "P1")->local;
  for (const CsrEntry& entry : after->StepRow(writes_, ava)) {
    if (entry.neighbor == p1) {
      EXPECT_EQ(entry.count, 4u);  // 1 in the root + 3 staged
      return;
    }
  }
  FAIL() << "P1 missing from Ava's writes row";
}

TEST_F(DeltaFixture, AddVertexIsIdempotentAndInvisibleUntilCommit) {
  MutableHin graph(root_);
  const VertexRef noah = graph.AddVertex("author", "Noah").value();
  EXPECT_EQ(noah.local, root_->NumVertices(author_));  // absolute id
  EXPECT_EQ(graph.AddVertex("author", "Noah").value(), noah);
  // Re-adding a committed vertex is also a no-op returning its ref.
  const VertexRef ava = root_->FindVertex(author_, "Ava").value();
  EXPECT_EQ(graph.AddVertex("author", "Ava").value(), ava);

  EXPECT_FALSE(root_->FindVertex(author_, "Noah").ok());
  const CommitResult result = graph.Commit().value();
  const HinPtr after = result.snapshot.hin;
  EXPECT_EQ(after->FindVertex(author_, "Noah").value(), noah);
  EXPECT_EQ(after->VertexName(noah), "Noah");
  EXPECT_EQ(after->NumVertices(author_), root_->NumVertices(author_) + 1);
  // A vertex with no edges yet reads an empty adjacency row.
  EXPECT_TRUE(after->StepRow(writes_, noah.local).empty());
  ASSERT_EQ(result.summary.added_vertices.size(), 1u);
  EXPECT_EQ(result.summary.added_vertices[0], noah);
}

TEST_F(DeltaFixture, AddEdgeCanCreateMissingEndpoints) {
  MutableHin graph(root_);
  // Without create_vertices, unknown endpoints are a staging error.
  EXPECT_EQ(graph.AddEdge("writes", "Mia", "P9").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(graph.PendingOps(), 0u);

  ASSERT_TRUE(graph.AddEdge("writes", "Mia", "P9", /*count=*/1,
                            /*create_vertices=*/true)
                  .ok());
  const CommitResult result = graph.Commit().value();
  EXPECT_EQ(result.summary.added_vertices.size(), 2u);
  const HinPtr after = result.snapshot.hin;
  const VertexRef mia = after->FindVertex(author_, "Mia").value();
  const VertexRef p9 = after->FindVertex(paper_, "P9").value();
  const auto row = after->StepRow(writes_, mia.local);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].neighbor, p9.local);
}

TEST_F(DeltaFixture, DeleteEdgeRemovesAllParallelLinksBothDirections) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Ava", "P1", /*count=*/3).ok());
  ASSERT_TRUE(graph.Commit().ok());
  ASSERT_TRUE(graph.DeleteEdge("writes", "Ava", "P1").ok());
  const CommitResult result = graph.Commit().value();
  EXPECT_EQ(result.snapshot.epoch, 2u);
  const HinPtr after = result.snapshot.hin;
  const LocalId ava = after->FindVertex(author_, "Ava")->local;
  const LocalId p1 = after->FindVertex(paper_, "P1")->local;
  for (const CsrEntry& entry : after->StepRow(writes_, ava)) {
    EXPECT_NE(entry.neighbor, p1);
  }
  const EdgeStep reverse{writes_.edge_type, Direction::kReverse};
  for (const CsrEntry& entry : after->StepRow(reverse, p1)) {
    EXPECT_NE(entry.neighbor, ava);
  }
  // The link is gone now, so deleting it again is kNotFound.
  EXPECT_EQ(graph.DeleteEdge("writes", "Ava", "P1").code(),
            StatusCode::kNotFound);
}

TEST_F(DeltaFixture, DeleteVertexTombstonesButKeepsNumberingStable) {
  MutableHin graph(root_);
  const VertexRef ava = root_->FindVertex(author_, "Ava").value();
  ASSERT_TRUE(graph.DeleteVertex("author", "Ava").ok());
  const CommitResult result = graph.Commit().value();
  EXPECT_EQ(result.summary.vertices_deleted, 1u);
  const HinPtr after = result.snapshot.hin;

  EXPECT_EQ(after->FindVertex(author_, "Ava").status().code(),
            StatusCode::kNotFound);
  // The id slot (and name) is retired, not reused: numbering of every
  // live vertex is unchanged.
  EXPECT_EQ(after->NumVertices(author_), root_->NumVertices(author_));
  EXPECT_EQ(after->VertexName(ava), "Ava");
  EXPECT_EQ(after->FindVertex(author_, "Liam")->local,
            root_->FindVertex(author_, "Liam")->local);

  // All incident edges vanish from both stored directions.
  EXPECT_TRUE(after->StepRow(writes_, ava.local).empty());
  const EdgeStep reverse{writes_.edge_type, Direction::kReverse};
  const LocalId p1 = after->FindVertex(paper_, "P1")->local;
  for (const CsrEntry& entry : after->StepRow(reverse, p1)) {
    EXPECT_NE(entry.neighbor, ava.local);
  }
  EXPECT_EQ(after->TotalEdges(), root_->TotalEdges() - 2);  // P1 and P2

  // The retired name cannot be re-registered.
  EXPECT_FALSE(graph.AddVertex("author", "Ava").ok());
  EXPECT_FALSE(graph.AddEdge("writes", "Ava", "P1", /*count=*/1,
                             /*create_vertices=*/true)
                   .ok());
}

TEST_F(DeltaFixture, CommitSummaryListsExactlyTheTouchedRows) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Liam", "P2").ok());
  const MutationSummary summary = graph.Commit().value().summary;
  const HinPtr after = graph.Snapshot().hin;
  const LocalId liam = after->FindVertex(author_, "Liam")->local;
  const LocalId p2 = after->FindVertex(paper_, "P2")->local;

  ASSERT_EQ(summary.Touched(writes_).size(), 1u);
  EXPECT_EQ(summary.Touched(writes_)[0], liam);
  const EdgeStep reverse{writes_.edge_type, Direction::kReverse};
  ASSERT_EQ(summary.Touched(reverse).size(), 1u);
  EXPECT_EQ(summary.Touched(reverse)[0], p2);
  // The published_in adjacency is untouched.
  const EdgeStep published =
      root_->schema().ResolveStep(paper_, venue_).value();
  EXPECT_TRUE(summary.Touched(published).empty());
  EXPECT_TRUE(summary.added_vertices.empty());
}

TEST_F(DeltaFixture, PinnedSnapshotsAreImmuneToLaterCommits) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Liam", "P2").ok());
  const HinPtr epoch1 = graph.Commit().value().snapshot.hin;
  const LocalId liam = epoch1->FindVertex(author_, "Liam")->local;
  ASSERT_EQ(epoch1->StepRow(writes_, liam).size(), 2u);

  ASSERT_TRUE(graph.DeleteEdge("writes", "Liam", "P1").ok());
  ASSERT_TRUE(graph.DeleteEdge("writes", "Liam", "P2").ok());
  const HinPtr epoch2 = graph.Commit().value().snapshot.hin;
  EXPECT_EQ(epoch2->epoch(), 2u);
  EXPECT_TRUE(epoch2->StepRow(writes_, liam).empty());
  // The epoch-1 snapshot still answers exactly as it did.
  EXPECT_EQ(epoch1->epoch(), 1u);
  EXPECT_EQ(epoch1->StepRow(writes_, liam).size(), 2u);
}

TEST_F(DeltaFixture, FlattenedRebuildIsBitwiseIdenticalToTheOverlay) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Noah", "P3", /*count=*/2,
                            /*create_vertices=*/true)
                  .ok());
  ASSERT_TRUE(graph.AddEdge("published_in", "P3", "KDD", /*count=*/1,
                            /*create_vertices=*/true)
                  .ok());
  ASSERT_TRUE(graph.DeleteEdge("writes", "Ava", "P2").ok());
  ASSERT_TRUE(graph.Commit().ok());
  ASSERT_TRUE(graph.DeleteVertex("author", "Liam").ok());
  ASSERT_TRUE(graph.Commit().ok());

  const HinPtr overlay = graph.Snapshot().hin;
  const HinPtr flat = FlattenHin(overlay).value();
  ASSERT_FALSE(flat->has_overlay());
  EXPECT_EQ(flat->epoch(), 0u);
  EXPECT_EQ(flat->TotalVertices(), overlay->TotalVertices());
  EXPECT_EQ(flat->TotalEdges(), overlay->TotalEdges());
  ExpectSameAdjacency(overlay, flat);
  // Vertex numbering and names carry over exactly.
  for (TypeId t = 0; t < overlay->schema().num_vertex_types(); ++t) {
    for (LocalId v = 0; v < overlay->NumVertices(t); ++v) {
      EXPECT_EQ(flat->VertexName(VertexRef{t, v}),
                overlay->VertexName(VertexRef{t, v}));
    }
  }
  // Documented wrinkle: a flattened tombstone becomes a plain isolated
  // vertex, findable again (the overlay still rejects it).
  EXPECT_FALSE(overlay->FindVertex(author_, "Liam").ok());
  EXPECT_TRUE(flat->FindVertex(author_, "Liam").ok());

  // A root input passes through unchanged.
  EXPECT_EQ(FlattenHin(root_).value().get(), root_.get());
}

TEST_F(DeltaFixture, OverlaySketchesMatchAFromScratchRebuild) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Zoe", "P1", /*count=*/1,
                            /*create_vertices=*/true)
                  .ok());
  ASSERT_TRUE(graph.DeleteEdge("published_in", "P2", "ICDE").ok());
  const HinPtr overlay = graph.Commit().value().snapshot.hin;
  const HinPtr flat = FlattenHin(overlay).value();
  for (const EdgeStep& step : AllSteps(root_->schema())) {
    EXPECT_EQ(overlay->StepSketch(step), flat->StepSketch(step));
  }
}

TEST_F(DeltaFixture, MemoryBytesAccountsForTheOverlay) {
  MutableHin graph(root_);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(graph.AddEdge("writes", "extra_" + std::to_string(i), "P1",
                              /*count=*/1, /*create_vertices=*/true)
                    .ok());
  }
  const HinPtr overlay = graph.Commit().value().snapshot.hin;
  ASSERT_NE(overlay->overlay(), nullptr);
  EXPECT_GT(overlay->overlay()->MemoryBytes(), 0u);
  EXPECT_GT(overlay->MemoryBytes(), root_->MemoryBytes());
}

TEST_F(DeltaFixture, StagingErrorsLeaveTheBatchIntact) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Liam", "P2").ok());
  EXPECT_FALSE(graph.AddEdge("cites", "P1", "P2").ok());  // unknown type
  EXPECT_FALSE(graph.AddVertex("ghost_type", "X").ok());
  EXPECT_FALSE(graph.DeleteVertex("author", "Nobody").ok());
  EXPECT_EQ(graph.PendingOps(), 1u);  // the good op is still staged
  const CommitResult result = graph.Commit().value();
  EXPECT_EQ(result.snapshot.epoch, 1u);
  EXPECT_EQ(result.summary.edges_added, 1u);
}

TEST_F(DeltaFixture, AdjacencyAccessorAbortsOnOverlaySnapshots) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Liam", "P2").ok());
  const HinPtr overlay = graph.Commit().value().snapshot.hin;
  EXPECT_DEATH(overlay->Adjacency(writes_), "");
}

TEST_F(DeltaFixture, MutableHinRequiresARootGraph) {
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Liam", "P2").ok());
  const HinPtr overlay = graph.Commit().value().snapshot.hin;
  EXPECT_DEATH(MutableHin{overlay}, "");
}

TEST_F(DeltaFixture, SaveHinOnOverlaySnapshotsRoundTrips) {
  // Regression gate for the snapshot-I/O sweep: SaveHinBinary /
  // SaveHinText on an epoch-N overlay must fold rows through StepRow
  // (the overlay has no contiguous root arrays to block-copy), not
  // abort or silently persist the stale root adjacency.
  MutableHin graph(root_);
  ASSERT_TRUE(graph.AddEdge("writes", "Liam", "P2").ok());
  ASSERT_TRUE(graph.DeleteEdge("writes", "Ava", "P1").ok());
  ASSERT_TRUE(graph
                  .AddEdge("published_in", "P3", "KDD", /*count=*/2,
                           /*create_vertices=*/true)
                  .ok());
  ASSERT_TRUE(graph.Commit().ok());
  ASSERT_TRUE(graph.DeleteVertex("author", "Ava").ok());
  ASSERT_TRUE(graph.Commit().ok());
  const HinPtr overlay = graph.Snapshot().hin;
  ASSERT_TRUE(overlay->has_overlay());

  const ScopedTempDir tmp("netout_delta");
  const std::string base = tmp.File("save");
  const std::string bin_path = base + ".hin";
  const std::string text_path = base + ".txt";
  ASSERT_TRUE(SaveHinBinary(*overlay, bin_path).ok());
  ASSERT_TRUE(SaveHinText(*overlay, text_path).ok());

  // The binary snapshot preserves local ids, so the reload must be
  // bitwise the overlay view (tombstones flatten to isolated vertices).
  const HinPtr reloaded = LoadHinBinary(bin_path).value();
  EXPECT_FALSE(reloaded->has_overlay());
  ExpectSameAdjacency(overlay, reloaded);
  EXPECT_EQ(reloaded->TotalEdges(), overlay->TotalEdges());

  // The text form renumbers; check the edge multiset size survived.
  const HinPtr from_text = LoadHinText(text_path).value();
  EXPECT_EQ(from_text->TotalEdges(), overlay->TotalEdges());
}

}  // namespace
}  // namespace netout
