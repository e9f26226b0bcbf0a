// The defining exactness gate of the mutation layer (DESIGN.md §14): a
// query against an epoch-E overlay snapshot with *incrementally
// maintained* indexes (PmIndex/SpmIndex::ApplyDelta, CachedIndex keyed
// invalidation) must serialize a byte-identical "outliers" array to the
// same query against a *from-scratch rebuild* of the same logical graph
// with freshly built indexes — across {1, 2, 4} worker threads, cache
// on and off, PM / SPM / no index.
//
// The rebuild harness is deliberately independent of FlattenHin: it
// re-adds every vertex name in numbering order (tombstones become
// isolated vertices, preserving LocalIds) and re-inserts the surviving
// edge multiset through GraphBuilder, so the reference path shares no
// delta-overlay code with the path under test.

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/biblio_gen.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "index/cached_index.h"
#include "index/incremental.h"
#include "index/pm_index.h"
#include "index/spm_index.h"
#include "query/batch.h"
#include "query/engine.h"
#include "query/executor.h"
#include "query/result_json.h"
#include "tests/thread_recording_index.h"

namespace netout {
namespace {

constexpr const char* kVenueQuery =
    "FIND OUTLIERS FROM author{\"star_0\"}.paper.author "
    "JUDGED BY author.paper.venue TOP 5;";
constexpr const char* kTermQuery =
    "FIND OUTLIERS FROM author{\"star_1\"}.paper.author "
    "JUDGED BY author.paper.term TOP 5;";
// Every author: 600 Materialize rows, past two kMinRowsPerShard shards,
// so the grid's cells with 2+ workers run the sharded Materialize.
constexpr const char* kWideQuery =
    "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 5;";

/// The exact "outliers" array bytes of a serialized result — the
/// bitwise-identity comparand (stats and epoch legitimately differ).
std::string ExtractOutliers(const std::string& json) {
  const std::size_t key = json.find("\"outliers\":[");
  if (key == std::string::npos) return "<missing>";
  std::size_t pos = key + std::strlen("\"outliers\":[");
  int depth = 1;
  while (pos < json.size() && depth > 0) {
    if (json[pos] == '[') ++depth;
    if (json[pos] == ']') --depth;
    ++pos;
  }
  return json.substr(key, pos - key);
}

/// Rebuilds `snapshot` from scratch through GraphBuilder: identical
/// schema, identical vertex numbering (tombstone slots re-added as
/// isolated vertices), identical surviving edge multiset.
HinPtr RebuildFromScratch(const HinPtr& snapshot) {
  const Schema& schema = snapshot->schema();
  GraphBuilder builder;
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    builder.AddVertexType(schema.VertexTypeName(t)).status().CheckOk();
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const EdgeTypeInfo& info = schema.edge_type(e);
    builder.AddEdgeType(info.name, info.src, info.dst).status().CheckOk();
  }
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    for (LocalId v = 0; v < snapshot->NumVertices(t); ++v) {
      builder.AddVertex(t, snapshot->VertexName(VertexRef{t, v}))
          .status()
          .CheckOk();
    }
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const EdgeStep forward{e, Direction::kForward};
    const TypeId src_type = schema.edge_type(e).src;
    const TypeId dst_type = schema.edge_type(e).dst;
    for (LocalId row = 0; row < snapshot->NumVertices(src_type); ++row) {
      for (const CsrEntry& entry : snapshot->StepRow(forward, row)) {
        builder
            .AddEdge(e, VertexRef{src_type, row},
                     VertexRef{dst_type, entry.neighbor}, entry.count)
            .CheckOk();
      }
    }
  }
  return builder.Finish().value();
}

/// Everything the grid tests compare: the mutated snapshot with its
/// delta-maintained indexes and epoch-warmed caches, and the rebuilt
/// root with freshly built indexes.
struct EquivalenceWorld {
  BiblioDataset dataset;
  HinPtr snapshot;  // final overlay, epoch final_epoch
  std::uint64_t final_epoch = 0;
  HinPtr rebuild;  // independent from-scratch rebuild of the same graph

  std::unique_ptr<PmIndex> pm_maintained;
  std::unique_ptr<SpmIndex> spm_maintained;
  std::unique_ptr<PmIndex> pm_fresh;
  std::unique_ptr<SpmIndex> spm_fresh;

  // Caches carried across every epoch (keyed invalidation, never
  // Clear()), warmed by queries at each intermediate epoch so stale
  // entries exist to be invalidated.
  std::unique_ptr<CachedIndex> cache_traversal;  // no base index
  std::unique_ptr<CachedIndex> cache_pm;
  std::unique_ptr<CachedIndex> cache_spm;
};

class IncrementalEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new EquivalenceWorld;
    BiblioConfig config;
    config.seed = 31;
    config.num_areas = 2;
    config.authors_per_area = 300;
    config.papers_per_area = 300;
    config.venues_per_area = 3;
    config.terms_per_area = 20;
    config.shared_terms = 10;
    world_->dataset = GenerateBiblio(config).value();
    const HinPtr root = world_->dataset.hin;

    world_->pm_maintained = PmIndex::Build(*root).value();
    std::vector<VertexRef> selection;
    for (LocalId v = 0; v < 12; ++v) {
      selection.push_back(VertexRef{world_->dataset.author_type, v});
    }
    world_->spm_maintained =
        SpmIndex::BuildForVertices(*root, selection).value();
    world_->cache_traversal = std::make_unique<CachedIndex>();
    world_->cache_pm =
        std::make_unique<CachedIndex>(world_->pm_maintained.get());
    world_->cache_spm =
        std::make_unique<CachedIndex>(world_->spm_maintained.get());

    MutableHin graph(root);
    WarmCaches(root);

    // Epoch 1: three papers stream in, wired to existing authors,
    // venues and terms (the server's add_edge ingest shape).
    for (int i = 0; i < 3; ++i) {
      const std::string paper = "paper_new_" + std::to_string(i);
      ASSERT_TRUE(graph
                      .AddEdge("writes", "star_0", paper, /*count=*/1,
                               /*create_vertices=*/true)
                      .ok());
      ASSERT_TRUE(graph
                      .AddEdge("writes", "author_0_" + std::to_string(i),
                               paper, /*count=*/1, /*create_vertices=*/true)
                      .ok());
      ASSERT_TRUE(graph
                      .AddEdge("published_in", paper, "venue_1_0",
                               /*count=*/1, /*create_vertices=*/true)
                      .ok());
      ASSERT_TRUE(graph
                      .AddEdge("has_term", paper, "shared_term_0",
                               /*count=*/1, /*create_vertices=*/true)
                      .ok());
    }
    CommitAndMaintain(graph);

    // Epoch 2: a cross-area edge, an edge retraction, a tombstone.
    ASSERT_TRUE(graph
                    .AddEdge("writes", "star_1", "paper_new_0", /*count=*/1,
                             /*create_vertices=*/true)
                    .ok());
    ASSERT_TRUE(graph.DeleteEdge("writes", "star_0", "paper_new_1").ok());
    ASSERT_TRUE(graph.DeleteVertex("author", "author_1_5").ok());
    CommitAndMaintain(graph);

    // Epoch 3: a brand-new author with parallel edges, plus another
    // retraction of an edge added at epoch 1.
    ASSERT_TRUE(graph.AddVertex("author", "newcomer_0").ok());
    ASSERT_TRUE(graph
                    .AddEdge("writes", "newcomer_0", "paper_new_2",
                             /*count=*/2, /*create_vertices=*/false)
                    .ok());
    ASSERT_TRUE(
        graph.DeleteEdge("published_in", "paper_new_0", "venue_1_0").ok());
    CommitAndMaintain(graph);

    world_->snapshot = graph.Snapshot().hin;
    world_->final_epoch = graph.Snapshot().epoch;
    ASSERT_EQ(world_->final_epoch, 3u);

    world_->rebuild = RebuildFromScratch(world_->snapshot);
    ASSERT_EQ(world_->rebuild->TotalEdges(), world_->snapshot->TotalEdges());
    world_->pm_fresh = PmIndex::Build(*world_->rebuild).value();
    world_->spm_fresh =
        SpmIndex::BuildForVertices(*world_->rebuild, selection).value();
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  /// Runs the three reference queries once per cache so every cache holds
  /// entries of the current epoch (and stale ones from earlier epochs).
  static void WarmCaches(const HinPtr& snapshot) {
    for (CachedIndex* cache :
         {world_->cache_traversal.get(), world_->cache_pm.get(),
          world_->cache_spm.get()}) {
      EngineOptions options;
      options.index = cache;
      Engine engine(snapshot, options);
      ASSERT_TRUE(engine.Execute(kVenueQuery).ok());
      ASSERT_TRUE(engine.Execute(kTermQuery).ok());
      ASSERT_TRUE(engine.Execute(kWideQuery).ok());
    }
  }

  static void CommitAndMaintain(MutableHin& graph) {
    const CommitResult commit = graph.Commit().value();
    const HinPtr after = commit.snapshot.hin;
    const AffectedRows affected =
        AffectedTwoStepRows(*after, commit.summary);
    ASSERT_TRUE(world_->pm_maintained->ApplyDelta(*after, affected).ok());
    ASSERT_TRUE(world_->spm_maintained->ApplyDelta(*after, affected).ok());
    world_->cache_traversal->BeginEpoch(commit.snapshot.epoch, affected);
    world_->cache_pm->BeginEpoch(commit.snapshot.epoch, affected);
    world_->cache_spm->BeginEpoch(commit.snapshot.epoch, affected);
    WarmCaches(after);
  }

  /// Runs the three queries on `hin` through a BatchRunner with a pool
  /// of `threads` workers (0 = no pool) and returns the serialized
  /// results. Adds the threads that looked up `index` to `seen`.
  static std::vector<std::string> RunGrid(const HinPtr& hin,
                                          const MetaPathIndex* index,
                                          std::size_t threads,
                                          std::uint64_t expect_epoch,
                                          std::set<std::thread::id>* seen) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    const ThreadRecordingIndex recorder(
        index, /*concurrent=*/true,
        threads >= 2 ? ThreadRecordingIndex::kFanOutPatience
                     : std::chrono::microseconds{0});
    EngineOptions options;
    options.index = index == nullptr ? nullptr : &recorder;
    options.exec.pool = pool.get();
    BatchRunner runner(hin, options);
    const std::vector<BatchOutcome> outcomes =
        runner.Run(std::vector<std::string>{kVenueQuery, kTermQuery,
                                            kWideQuery});
    EXPECT_GE(outcomes.back().result.stats.candidate_count,
              2 * kMinRowsPerShard);
    const std::set<std::thread::id> looked_up = recorder.threads();
    seen->insert(looked_up.begin(), looked_up.end());
    std::vector<std::string> serialized;
    for (const BatchOutcome& outcome : outcomes) {
      EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_EQ(outcome.result.stats.graph_epoch, expect_epoch);
      serialized.push_back(
          QueryResultToJson(*hin, outcome.result, /*pretty=*/false));
    }
    return serialized;
  }

  /// The gate: for one index configuration, the maintained-index
  /// snapshot run and the fresh-index rebuild run must serialize
  /// byte-identical "outliers" arrays at every thread count. With an
  /// index attached, the cells with 2+ workers must also have read it
  /// from more than one thread: the wide query fanned out.
  static void ExpectEquivalence(const MetaPathIndex* maintained,
                                const MetaPathIndex* fresh,
                                const char* config) {
    std::set<std::thread::id> pooled_threads;
    for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
      std::set<std::thread::id> seen;
      const std::vector<std::string> got =
          RunGrid(world_->snapshot, maintained, threads,
                  world_->final_epoch, &seen);
      const std::vector<std::string> want =
          RunGrid(world_->rebuild, fresh, threads, /*expect_epoch=*/0, &seen);
      if (threads >= 2) pooled_threads.insert(seen.begin(), seen.end());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(ExtractOutliers(got[i]), ExtractOutliers(want[i]))
            << config << " diverged at " << threads << " threads, query "
            << i;
      }
    }
    if (maintained != nullptr) {
      EXPECT_GT(pooled_threads.size(), 1u) << config;
    }
  }

  static EquivalenceWorld* world_;
};

EquivalenceWorld* IncrementalEquivalenceTest::world_ = nullptr;

TEST_F(IncrementalEquivalenceTest, RebuildHarnessPreservesTheGraph) {
  const HinPtr& snapshot = world_->snapshot;
  const HinPtr& rebuild = world_->rebuild;
  ASSERT_EQ(rebuild->TotalVertices(), snapshot->TotalVertices());
  const Schema& schema = snapshot->schema();
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    for (const Direction direction :
         {Direction::kForward, Direction::kReverse}) {
      const EdgeStep step{e, direction};
      const TypeId source = schema.StepSource(step);
      for (LocalId row = 0; row < snapshot->NumVertices(source); ++row) {
        const auto got = rebuild->StepRow(step, row);
        const auto want = snapshot->StepRow(step, row);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i]);
        }
      }
    }
  }
}

TEST_F(IncrementalEquivalenceTest, TraversalOnly) {
  ExpectEquivalence(nullptr, nullptr, "traversal");
}

TEST_F(IncrementalEquivalenceTest, PmMaintainedVsPmFresh) {
  ASSERT_EQ(world_->pm_maintained->epoch(), world_->final_epoch);
  ExpectEquivalence(world_->pm_maintained.get(), world_->pm_fresh.get(),
                    "pm");
}

TEST_F(IncrementalEquivalenceTest, SpmMaintainedVsSpmFresh) {
  ASSERT_EQ(world_->spm_maintained->epoch(), world_->final_epoch);
  ExpectEquivalence(world_->spm_maintained.get(), world_->spm_fresh.get(),
                    "spm");
}

TEST_F(IncrementalEquivalenceTest, WarmedCacheOverTraversal) {
  // The cache carries entries from epochs 0..3 with only keyed
  // invalidation in between; the rebuild side gets a cold cache.
  CachedIndex cold;
  ExpectEquivalence(world_->cache_traversal.get(), &cold,
                    "cache+traversal");
}

TEST_F(IncrementalEquivalenceTest, WarmedCacheOverPm) {
  CachedIndex cold(world_->pm_fresh.get());
  ExpectEquivalence(world_->cache_pm.get(), &cold, "cache+pm");
}

TEST_F(IncrementalEquivalenceTest, WarmedCacheOverSpm) {
  CachedIndex cold(world_->spm_fresh.get());
  ExpectEquivalence(world_->cache_spm.get(), &cold, "cache+spm");
}

}  // namespace
}  // namespace netout
