// The defining exactness gate of out-of-core storage (DESIGN.md §15):
// a query against a sharded graph directory — mmap-paged segments
// under a budget a quarter of the mapped footprint, with degree
// renumbering on or off — must serialize a byte-identical "outliers"
// array to the same query against the in-memory snapshot it was built
// from, across {1, 2, 4} worker threads and {traversal, PM, SPM,
// cache} index configurations. Paging is physical; answers are not
// allowed to know about it.

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
#include "graph/segment.h"
#include "index/cached_index.h"
#include "index/pm_index.h"
#include "index/spm_index.h"
#include "query/batch.h"
#include "query/engine.h"
#include "query/executor.h"
#include "query/result_json.h"
#include "tests/scoped_temp_dir.h"
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
/// bitwise-identity comparand (stats legitimately differ).
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

/// One storage side of the comparison: a snapshot plus indexes built
/// over *that* snapshot (the sharded side builds its PM/SPM through
/// the paged StepRow path, which is part of what the gate covers).
struct StorageSide {
  HinPtr hin;
  std::unique_ptr<PmIndex> pm;
  std::unique_ptr<SpmIndex> spm;
};

struct OocoreWorld {
  // First member, so it outlives (is destroyed after) the sides that
  // map its segment files.
  ScopedTempDir tmp{"netout_oocore"};
  BiblioDataset dataset;
  StorageSide memory;
  StorageSide sharded_plain;     // renumber off
  StorageSide sharded_packed;    // renumber on (degree order)
  std::string dir_plain;
  std::string dir_packed;
};

class OocoreEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new OocoreWorld;
    BiblioConfig config;
    config.seed = 47;
    config.num_areas = 2;
    config.authors_per_area = 300;
    config.papers_per_area = 300;
    config.venues_per_area = 3;
    config.terms_per_area = 20;
    config.shared_terms = 10;
    world_->dataset = GenerateBiblio(config).value();
    world_->memory.hin = world_->dataset.hin;

    world_->dir_plain = world_->tmp.File("plain");
    world_->dir_packed = world_->tmp.File("packed");

    // Small segments + a budget of a quarter of the mapped bytes, so
    // the whole grid below runs under constant eviction churn.
    ShardWriterOptions writer;
    writer.target_segment_bytes = 4096;
    writer.renumber = false;
    ASSERT_TRUE(
        BuildShardedHin(*world_->memory.hin, world_->dir_plain, writer)
            .ok());
    writer.renumber = true;
    ASSERT_TRUE(
        BuildShardedHin(*world_->memory.hin, world_->dir_packed, writer)
            .ok());

    const std::uint64_t mapped =
        LoadShardedHin(world_->dir_plain).value()->shard_store()
            ->Stats()
            .mapped_bytes;
    ShardedOptions reader;
    reader.budget_bytes = mapped / 4;
    world_->sharded_plain.hin =
        LoadShardedHin(world_->dir_plain, reader).value();
    world_->sharded_packed.hin =
        LoadShardedHin(world_->dir_packed, reader).value();

    std::vector<VertexRef> selection;
    for (LocalId v = 0; v < 12; ++v) {
      selection.push_back(VertexRef{world_->dataset.author_type, v});
    }
    for (StorageSide* side :
         {&world_->memory, &world_->sharded_plain,
          &world_->sharded_packed}) {
      side->pm = PmIndex::Build(*side->hin).value();
      side->spm = SpmIndex::BuildForVertices(*side->hin, selection).value();
    }
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  /// The three queries through a BatchRunner with a pool of `threads`
  /// workers (0 = no pool), serialized. Adds the threads that looked up
  /// `index` to `seen`.
  static std::vector<std::string> RunGrid(const HinPtr& hin,
                                          const MetaPathIndex* index,
                                          std::size_t threads,
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
      serialized.push_back(
          QueryResultToJson(*hin, outcome.result, /*pretty=*/false));
    }
    return serialized;
  }

  /// The gate: for one index configuration, the in-memory run and both
  /// sharded runs (renumber off and on) must serialize byte-identical
  /// "outliers" arrays at every thread count. With an index attached,
  /// the cells with 2+ workers must also have read it from more than one
  /// thread: the wide query fanned out over the paged graphs.
  static void ExpectEquivalence(const MetaPathIndex* mem_index,
                                const MetaPathIndex* plain_index,
                                const MetaPathIndex* packed_index,
                                const char* config) {
    std::set<std::thread::id> pooled_threads;
    for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
      std::set<std::thread::id> seen;
      const std::vector<std::string> want =
          RunGrid(world_->memory.hin, mem_index, threads, &seen);
      const std::vector<std::string> plain =
          RunGrid(world_->sharded_plain.hin, plain_index, threads, &seen);
      const std::vector<std::string> packed =
          RunGrid(world_->sharded_packed.hin, packed_index, threads, &seen);
      if (threads >= 2) pooled_threads.insert(seen.begin(), seen.end());
      ASSERT_EQ(want.size(), plain.size());
      ASSERT_EQ(want.size(), packed.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(ExtractOutliers(plain[i]), ExtractOutliers(want[i]))
            << config << " (renumber off) diverged at " << threads
            << " threads, query " << i;
        EXPECT_EQ(ExtractOutliers(packed[i]), ExtractOutliers(want[i]))
            << config << " (renumber on) diverged at " << threads
            << " threads, query " << i;
      }
    }
    if (mem_index != nullptr) {
      EXPECT_GT(pooled_threads.size(), 1u) << config;
    }
  }

  static OocoreWorld* world_;
};

OocoreWorld* OocoreEquivalenceTest::world_ = nullptr;

TEST_F(OocoreEquivalenceTest, BudgetActuallyBites) {
  // The fixture is only a paging gate if paging happens: the quarter
  // budget must have forced refaults and evictions by the time the
  // index builds above completed.
  for (const StorageSide* side :
       {&world_->sharded_plain, &world_->sharded_packed}) {
    const ShardedStorageStats stats = side->hin->shard_store()->Stats();
    EXPECT_GT(stats.segments, 4u);
    EXPECT_GT(stats.faults, stats.segments);
    EXPECT_GT(stats.evictions, 0u);
  }
}

TEST_F(OocoreEquivalenceTest, TraversalOnly) {
  ExpectEquivalence(nullptr, nullptr, nullptr, "traversal");
}

TEST_F(OocoreEquivalenceTest, PmBuiltOverEachStorage) {
  ExpectEquivalence(world_->memory.pm.get(),
                    world_->sharded_plain.pm.get(),
                    world_->sharded_packed.pm.get(), "pm");
}

TEST_F(OocoreEquivalenceTest, SpmBuiltOverEachStorage) {
  ExpectEquivalence(world_->memory.spm.get(),
                    world_->sharded_plain.spm.get(),
                    world_->sharded_packed.spm.get(), "spm");
}

TEST_F(OocoreEquivalenceTest, CacheOverTraversal) {
  CachedIndex mem_cache;
  CachedIndex plain_cache;
  CachedIndex packed_cache;
  // Run the grid twice through the same caches: the second pass mixes
  // warm hits with paged misses.
  ExpectEquivalence(&mem_cache, &plain_cache, &packed_cache,
                    "cache cold");
  ExpectEquivalence(&mem_cache, &plain_cache, &packed_cache,
                    "cache warm");
}

TEST_F(OocoreEquivalenceTest, CacheOverPm) {
  CachedIndex mem_cache(world_->memory.pm.get());
  CachedIndex plain_cache(world_->sharded_plain.pm.get());
  CachedIndex packed_cache(world_->sharded_packed.pm.get());
  ExpectEquivalence(&mem_cache, &plain_cache, &packed_cache, "cache+pm");
}

}  // namespace
}  // namespace netout
