#include "query/batch.h"

#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/biblio_gen.h"
#include "datagen/workload.h"
#include "index/cached_index.h"
#include "query/engine.h"
#include "tests/thread_recording_index.h"

namespace netout {
namespace {

class BatchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BiblioConfig config;
    config.seed = 31;
    config.num_areas = 3;
    config.authors_per_area = 50;
    config.papers_per_area = 150;
    config.venues_per_area = 4;
    config.terms_per_area = 30;
    config.shared_terms = 15;
    dataset_ = new BiblioDataset(GenerateBiblio(config).value());
  }
  static void TearDownTestSuite() { delete dataset_; }

  static BiblioDataset* dataset_;
};

BiblioDataset* BatchFixture::dataset_ = nullptr;

/// Engine options borrowing `pool` (may be null) and `index`.
EngineOptions WithPool(ThreadPool* pool,
                       const MetaPathIndex* index = nullptr) {
  EngineOptions options;
  options.index = index;
  options.exec.pool = pool;
  return options;
}

void ExpectSameOutliers(const BatchOutcome& got, const BatchOutcome& want) {
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ASSERT_EQ(got.result.outliers.size(), want.result.outliers.size());
  for (std::size_t j = 0; j < got.result.outliers.size(); ++j) {
    EXPECT_EQ(got.result.outliers[j].name, want.result.outliers[j].name);
    // Bitwise: a fan-out only distributes the same per-row arithmetic.
    EXPECT_EQ(got.result.outliers[j].score, want.result.outliers[j].score);
  }
}

/// A network wide enough that a query over every author materializes
/// 1.2k rows: past two kMinRowsPerShard shards, so a pool of two or more
/// workers fans its Materialize out.
const BiblioDataset& WideDataset() {
  static const BiblioDataset dataset = [] {
    BiblioConfig config;
    config.seed = 41;
    config.num_areas = 4;
    config.authors_per_area = 300;
    config.papers_per_area = 600;
    config.venues_per_area = 4;
    config.terms_per_area = 20;
    config.shared_terms = 10;
    return GenerateBiblio(config).value();
  }();
  return dataset;
}

constexpr const char* kWideQuery =
    "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 10;";

TEST_F(BatchFixture, ParallelMatchesSequential) {
  WorkloadConfig workload;
  workload.num_queries = 40;
  workload.seed = 5;
  const auto queries = GenerateWorkload(*dataset_->hin, "author",
                                        QueryTemplate::kQ1, workload)
                           .value();

  BatchRunner sequential(dataset_->hin, EngineOptions{});
  const auto a = sequential.Run(queries);
  ASSERT_EQ(a.size(), queries.size());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    BatchRunner parallel(dataset_->hin, WithPool(&pool));
    const auto b = parallel.Run(queries);
    ASSERT_EQ(b.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ExpectSameOutliers(b[i], a[i]);
    }
  }
}

TEST_F(BatchFixture, PerQueryFailuresAreIsolated) {
  const std::vector<std::string> queries = {
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
          "\"}.paper.author JUDGED BY author.paper.venue TOP 3;",
      "THIS IS NOT A QUERY;",
      "FIND OUTLIERS FROM author{\"nobody-here\"}.paper.author "
      "JUDGED BY author.paper.venue TOP 3;",
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[1] +
          "\"}.paper.author JUDGED BY author.paper.venue TOP 3;",
  };
  ThreadPool pool(2);
  BatchRunner runner(dataset_->hin, WithPool(&pool));
  const auto outcomes = runner.Run(queries);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[1].status.code(), StatusCode::kParseError);
  EXPECT_EQ(outcomes[2].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(outcomes[3].status.ok());
  EXPECT_FALSE(outcomes[0].result.outliers.empty());
  EXPECT_FALSE(outcomes[3].result.outliers.empty());
}

// Regression: Run() used to wait on the pool's *global* idle state, so
// two concurrent Run() calls on one runner blocked on (and could return
// before) each other's work. Each call now runs on its own executor and
// completes exactly its own queries.
TEST_F(BatchFixture, ConcurrentRunsCompleteIndependently) {
  WorkloadConfig workload;
  workload.num_queries = 24;
  workload.seed = 11;
  const auto queries_a = GenerateWorkload(*dataset_->hin, "author",
                                          QueryTemplate::kQ1, workload)
                             .value();
  workload.seed = 12;
  const auto queries_b = GenerateWorkload(*dataset_->hin, "author",
                                          QueryTemplate::kQ1, workload)
                             .value();

  BatchRunner reference(dataset_->hin, EngineOptions{});
  const auto expect_a = reference.Run(queries_a);
  const auto expect_b = reference.Run(queries_b);

  ThreadPool pool(2);
  BatchRunner runner(dataset_->hin, WithPool(&pool));
  std::vector<BatchOutcome> got_a;
  std::vector<BatchOutcome> got_b;
  std::thread thread_a([&] { got_a = runner.Run(queries_a); });
  std::thread thread_b([&] { got_b = runner.Run(queries_b); });
  thread_a.join();
  thread_b.join();

  auto check = [](const std::vector<BatchOutcome>& got,
                  const std::vector<BatchOutcome>& expected) {
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectSameOutliers(got[i], expected[i]);
    }
  };
  check(got_a, expect_a);
  check(got_b, expect_b);
}

// Regression: BatchRunner used to share any attached index across its
// worker threads with no SupportsConcurrentUse() check — a silent data
// race for non-concurrent-safe indexes. With a pool, such indexes are
// now rejected up front with a clear per-outcome error.
TEST_F(BatchFixture, NonConcurrentIndexIsRejected) {
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
  EngineOptions options;
  options.index = &index;
  const std::vector<std::string> queries = {
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.venue TOP 3;"};

  ThreadPool pool(4);
  options.exec.pool = &pool;
  BatchRunner parallel(dataset_->hin, options);
  const auto rejected = parallel.Run(queries);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].status.code(), StatusCode::kFailedPrecondition);

  // A runner without a pool never shares the index: still allowed.
  options.exec.pool = nullptr;
  BatchRunner serial(dataset_->hin, options);
  const auto accepted = serial.Run(queries);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_TRUE(accepted[0].status.ok());
}

// Regression: a 1-worker runner used to build a pool of one, and
// TaskGroup::Wait help-drains the group's own tasks on the caller, so
// the worker and the waiting thread ran ops at the same time — sharing
// an index that NonConcurrentIndexIsRejected lets through because no
// parallelism was asked for. A runner without a pool runs the plan
// inline: every Lookup comes from the calling thread.
TEST_F(BatchFixture, SingleWorkerRunsOnTheCallingThreadOnly) {
  WorkloadConfig workload;
  workload.num_queries = 24;
  workload.seed = 21;
  const auto queries = GenerateWorkload(*dataset_->hin, "author",
                                        QueryTemplate::kQ1, workload)
                           .value();
  ThreadRecordingIndex index(nullptr, /*concurrent=*/false);
  BatchRunner runner(dataset_->hin, WithPool(nullptr, &index));
  const auto outcomes = runner.Run(queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (const BatchOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok());
  }
  const std::set<std::thread::id> threads = index.threads();
  ASSERT_FALSE(threads.empty());
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
}

// Every plan runs inline and these Q1 operators are far below
// kMinRowsPerShard, so a one-query batch never leaves the calling
// thread even with idle pool workers.
TEST_F(BatchFixture, OneQueryBatchStaysOnTheCallingThread) {
  WorkloadConfig workload;
  workload.num_queries = 12;
  workload.seed = 22;
  const auto queries = GenerateWorkload(*dataset_->hin, "author",
                                        QueryTemplate::kQ1, workload)
                           .value();
  ThreadRecordingIndex index;
  ThreadPool pool(2);
  BatchRunner runner(dataset_->hin, WithPool(&pool, &index));
  for (const std::string& query : queries) {
    const auto outcomes = runner.Run(std::vector<std::string>{query});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].status.ok()) << query;
  }
  const std::set<std::thread::id> threads = index.threads();
  ASSERT_FALSE(threads.empty());
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
}

// The sharded CachedIndex is concurrent-safe, so sharing one with a
// pool is supported — and warms across queries: outcomes must match the
// un-cached run without a pool. The light Q1 batch runs inline; the
// wide query fans its Materialize out, so pool workers hit and fill the
// cache at the same time.
TEST_F(BatchFixture, SharedCachedIndexAcrossWorkers) {
  WorkloadConfig workload;
  workload.num_queries = 24;
  workload.seed = 9;
  const auto queries = GenerateWorkload(*dataset_->hin, "author",
                                        QueryTemplate::kQ1, workload)
                           .value();
  BatchRunner reference(dataset_->hin, EngineOptions{});
  const auto expected = reference.Run(queries);

  CachedIndex cache;
  ThreadPool pool(4);
  BatchRunner runner(dataset_->hin, WithPool(&pool, &cache));
  const auto outcomes = runner.Run(queries);
  ASSERT_EQ(outcomes.size(), expected.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ExpectSameOutliers(outcomes[i], expected[i]);
  }
  EXPECT_GT(cache.stats().insertions, 0u);

  const BiblioDataset& wide = WideDataset();
  const std::vector<std::string> wide_queries = {kWideQuery};
  BatchRunner wide_reference(wide.hin, EngineOptions{});
  const auto wide_expected = wide_reference.Run(wide_queries);
  CachedIndex wide_cache;
  const ThreadRecordingIndex recorder(&wide_cache, /*concurrent=*/true,
                                      ThreadRecordingIndex::kFanOutPatience);
  BatchRunner wide_runner(wide.hin, WithPool(&pool, &recorder));
  // Cold, then warm: the second pass mixes hits with misses.
  for (int pass = 0; pass < 2; ++pass) {
    const auto wide_outcomes = wide_runner.Run(wide_queries);
    ASSERT_EQ(wide_outcomes.size(), 1u);
    ExpectSameOutliers(wide_outcomes[0], wide_expected[0]);
  }
  EXPECT_GT(recorder.threads().size(), 1u);
  EXPECT_GT(wide_cache.stats().insertions, 0u);
  EXPECT_GT(wide_cache.stats().hits, 0u);
}

TEST_F(BatchFixture, EmptyBatch) {
  BatchRunner runner(dataset_->hin, EngineOptions{});
  EXPECT_TRUE(runner.Run(std::vector<std::string>{}).empty());
}

TEST_F(BatchFixture, ReusableAcrossRuns) {
  ThreadPool pool(3);
  BatchRunner runner(dataset_->hin, WithPool(&pool));
  const std::vector<std::string> queries = {
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.venue TOP 2;"};
  const auto first = runner.Run(queries);
  const auto second = runner.Run(queries);
  ASSERT_TRUE(first[0].status.ok());
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_EQ(first[0].result.outliers[0].name,
            second[0].result.outliers[0].name);
}

// The fan-out rule, the same for a solo Engine query and a BatchRunner
// batch: with a 4-worker pool, an operator fans out only when each of at
// least two shards gets kMinRowsPerShard rows. A star query's ~20-row
// Materialize stays on the calling thread; a 1.2k-row one spreads over
// the pool with top-k bitwise equal to the run without a pool.
class FanOutFixture : public ::testing::Test {
 protected:
  /// Runs `query` through an Engine and through a one-query BatchRunner.
  static std::vector<BatchOutcome> RunBoth(const EngineOptions& options,
                                           const std::string& query) {
    const HinPtr& hin = WideDataset().hin;
    Engine engine(hin, options);
    Result<QueryResult> solo = engine.Execute(query);
    std::vector<BatchOutcome> outcomes(1);
    if (solo.ok()) {
      outcomes[0].result = std::move(solo).value();
    } else {
      outcomes[0].status = solo.status();
    }
    BatchRunner runner(hin, options);
    outcomes.push_back(
        std::move(runner.Run(std::vector<std::string>{query})[0]));
    return outcomes;
  }
};

TEST_F(FanOutFixture, SmallQueryStaysOnTheCallingThread) {
  const std::string query = "FIND OUTLIERS FROM author{\"" +
                            WideDataset().star_names[0] +
                            "\"}.paper.author JUDGED BY author.paper.venue "
                            "TOP 5;";
  ThreadRecordingIndex index;
  ThreadPool pool(4);
  const std::vector<BatchOutcome> outcomes =
      RunBoth(WithPool(&pool, &index), query);
  for (const BatchOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_LT(outcome.result.stats.candidate_count, kMinRowsPerShard);
  }
  const std::set<std::thread::id> threads = index.threads();
  ASSERT_FALSE(threads.empty());
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
}

TEST_F(FanOutFixture, LargeQueryFansOutWithIdenticalTopK) {
  const std::string query = kWideQuery;
  const std::vector<BatchOutcome> serial =
      RunBoth(WithPool(nullptr), query);
  ASSERT_TRUE(serial[0].status.ok()) << serial[0].status.ToString();
  EXPECT_GE(serial[0].result.stats.candidate_count, 1000u);

  ThreadRecordingIndex index;
  ThreadPool pool(4);
  // A shard is a few milliseconds of work, so the workers all but always
  // take some; repeat so a loaded host that lets the caller drain every
  // shard cannot fail the check.
  for (int attempt = 0; attempt < 10 && index.threads().size() < 2;
       ++attempt) {
    const std::vector<BatchOutcome> pooled =
        RunBoth(WithPool(&pool, &index), query);
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      ExpectSameOutliers(pooled[i], serial[i]);
    }
  }
  EXPECT_GT(index.threads().size(), 1u);
}

}  // namespace
}  // namespace netout
