#include <memory>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/biblio_gen.h"
#include "index/cached_index.h"
#include "index/pm_index.h"
#include "query/engine.h"

namespace netout {
namespace {

// Fan-out over a borrowed ExecOptions::pool must be invisible in the
// output: identical outlier names and bitwise-identical scores at every
// pool width, with or without an index. The wide query has 600
// candidates, so its Materialize fans out over two shards and its
// PathSim Score clears the pair threshold.
class ParallelQueryFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BiblioConfig config;
    config.seed = 17;
    config.num_areas = 3;
    config.authors_per_area = 200;
    config.papers_per_area = 400;
    config.venues_per_area = 4;
    config.terms_per_area = 30;
    config.shared_terms = 15;
    dataset_ = new BiblioDataset(GenerateBiblio(config).value());
    pm_ = PmIndex::Build(*dataset_->hin).value().release();
  }
  static void TearDownTestSuite() {
    delete pm_;
    delete dataset_;
  }

  /// Runs `query` with a pool of `threads` workers (0 = no pool).
  static QueryResult RunWithThreads(const MetaPathIndex* index,
                                    std::size_t threads,
                                    const std::string& query) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    EngineOptions options;
    options.index = index;
    options.exec.pool = pool.get();
    Engine engine(dataset_->hin, options);
    return engine.Execute(query).value();
  }

  static void ExpectIdentical(const QueryResult& a, const QueryResult& b) {
    ASSERT_EQ(a.outliers.size(), b.outliers.size());
    for (std::size_t i = 0; i < a.outliers.size(); ++i) {
      EXPECT_EQ(a.outliers[i].name, b.outliers[i].name);
      // Bitwise equality: the parallel path runs the identical
      // per-candidate arithmetic, only distributed.
      EXPECT_EQ(a.outliers[i].score, b.outliers[i].score);
    }
    EXPECT_EQ(a.stats.candidate_count, b.stats.candidate_count);
    EXPECT_EQ(a.stats.reference_count, b.stats.reference_count);
  }

  // All authors as candidates: at least two kMinRowsPerShard shards.
  static constexpr const char* kWideQuery =
      "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 10;";
  static constexpr const char* kWidePathSimQuery =
      "FIND OUTLIERS FROM author JUDGED BY author.paper.venue "
      "USING MEASURE pathsim TOP 10;";

  static BiblioDataset* dataset_;
  static PmIndex* pm_;
};

BiblioDataset* ParallelQueryFixture::dataset_ = nullptr;
PmIndex* ParallelQueryFixture::pm_ = nullptr;

TEST_F(ParallelQueryFixture, BaselineIdenticalAcrossThreadCounts) {
  const QueryResult serial = RunWithThreads(nullptr, 0, kWideQuery);
  ASSERT_EQ(serial.outliers.size(), 10u);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ExpectIdentical(serial, RunWithThreads(nullptr, threads, kWideQuery));
  }
  // The pairwise measure fans its Score out over candidates too.
  const QueryResult pathsim = RunWithThreads(nullptr, 0, kWidePathSimQuery);
  for (std::size_t threads : {1u, 2u, 4u}) {
    ExpectIdentical(pathsim,
                    RunWithThreads(nullptr, threads, kWidePathSimQuery));
  }
}

TEST_F(ParallelQueryFixture, PmIndexedIdenticalAcrossThreadCounts) {
  const QueryResult serial = RunWithThreads(pm_, 0, kWideQuery);
  ExpectIdentical(serial, RunWithThreads(pm_, 4, kWideQuery));
  // Indexed and baseline answers agree too.
  ExpectIdentical(serial, RunWithThreads(nullptr, 0, kWideQuery));
}

TEST_F(ParallelQueryFixture, CachedIndexMaterializesInParallel) {
  // The sharded CachedIndex serves concurrent lookups/remembers, so a
  // wide Materialize fans out over it (no serial fallback) — and the
  // answer stays bitwise identical to the un-cached serial run, with
  // the cache cold (populated under parallelism) and warm.
  CachedIndex cache(pm_);
  ASSERT_TRUE(cache.SupportsConcurrentUse());
  const QueryResult reference = RunWithThreads(nullptr, 0, kWideQuery);
  ExpectIdentical(reference, RunWithThreads(&cache, 4, kWideQuery));
  ExpectIdentical(reference, RunWithThreads(&cache, 4, kWideQuery));
}

TEST_F(ParallelQueryFixture, PureCacheIdenticalAcrossThreadCounts) {
  // No base index: every miss traverses and Remembers concurrently;
  // every pool width (and the warm second run) must agree bitwise with
  // the serial un-cached answer.
  const QueryResult reference = RunWithThreads(nullptr, 0, kWideQuery);
  for (std::size_t threads : {0u, 1u, 2u, 4u, 8u}) {
    CachedIndex cache;
    ExpectIdentical(reference, RunWithThreads(&cache, threads, kWideQuery));
    ExpectIdentical(reference, RunWithThreads(&cache, threads, kWideQuery));
    EXPECT_GT(cache.stats().insertions, 0u);
  }
}

TEST_F(ParallelQueryFixture, NonConcurrentIndexIsRejected) {
  // A third-party index that still reports non-concurrent-safe must be
  // rejected (not silently serialized, not raced on).
  class NonConcurrentIndex : public MetaPathIndex {
   public:
    std::optional<IndexHit> Lookup(const TwoStepKey&,
                                   LocalId) const override {
      return std::nullopt;
    }
    std::size_t MemoryBytes() const override { return 0; }
    bool SupportsConcurrentUse() const override { return false; }
  };
  NonConcurrentIndex index;
  ThreadPool pool(4);
  EngineOptions options;
  options.index = &index;
  options.exec.pool = &pool;
  Engine engine(dataset_->hin, options);
  const auto result = engine.Execute(kWideQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  // Execution without a pool remains allowed.
  options.exec.pool = nullptr;
  Engine serial_engine(dataset_->hin, options);
  EXPECT_TRUE(serial_engine.Execute(kWideQuery).ok());
}

TEST_F(ParallelQueryFixture, MultiPathAndJointCombineIdentical) {
  const std::string multi =
      "FIND OUTLIERS FROM author JUDGED BY author.paper.venue: 2.0, "
      "author.paper.author TOP 8;";
  ExpectIdentical(RunWithThreads(nullptr, 0, multi),
                  RunWithThreads(nullptr, 4, multi));
  const std::string joint =
      "FIND OUTLIERS FROM author JUDGED BY author.paper.venue, "
      "author.paper.author COMBINE BY joint TOP 8;";
  ExpectIdentical(RunWithThreads(nullptr, 0, joint),
                  RunWithThreads(nullptr, 4, joint));
}

TEST_F(ParallelQueryFixture, StageTimingsArePopulated) {
  const QueryResult result = RunWithThreads(nullptr, 4, kWideQuery);
  const StageTimings& stages = result.stats.stages;
  EXPECT_GT(stages.parse_nanos, 0);
  EXPECT_GT(stages.analyze_nanos, 0);
  EXPECT_GT(stages.materialize_nanos, 0);
  EXPECT_GT(stages.score_nanos, 0);
  EXPECT_GT(stages.topk_nanos, 0);
  // Stages are disjoint spans inside the total.
  EXPECT_LE(stages.parse_nanos + stages.analyze_nanos +
                stages.materialize_nanos + stages.score_nanos +
                stages.topk_nanos,
            result.stats.total_nanos);
}

}  // namespace
}  // namespace netout
