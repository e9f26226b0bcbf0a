#include "query/batch.h"

#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/sync.h"
#include "datagen/biblio_gen.h"
#include "datagen/workload.h"
#include "index/cached_index.h"

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

TEST_F(BatchFixture, ParallelMatchesSequential) {
  WorkloadConfig workload;
  workload.num_queries = 40;
  workload.seed = 5;
  const auto queries = GenerateWorkload(*dataset_->hin, "author",
                                        QueryTemplate::kQ1, workload)
                           .value();

  BatchRunner sequential(dataset_->hin, EngineOptions{}, 1);
  BatchRunner parallel(dataset_->hin, EngineOptions{}, 4);
  const auto a = sequential.Run(queries);
  const auto b = parallel.Run(queries);
  ASSERT_EQ(a.size(), queries.size());
  ASSERT_EQ(b.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(a[i].status.ok()) << queries[i];
    ASSERT_TRUE(b[i].status.ok()) << queries[i];
    ASSERT_EQ(a[i].result.outliers.size(), b[i].result.outliers.size());
    for (std::size_t j = 0; j < a[i].result.outliers.size(); ++j) {
      EXPECT_EQ(a[i].result.outliers[j].name,
                b[i].result.outliers[j].name);
      EXPECT_DOUBLE_EQ(a[i].result.outliers[j].score,
                       b[i].result.outliers[j].score);
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
  BatchRunner runner(dataset_->hin, EngineOptions{}, 2);
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
// before) each other's work. With the per-run TaskGroup each call
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

  BatchRunner reference(dataset_->hin, EngineOptions{}, 1);
  const auto expect_a = reference.Run(queries_a);
  const auto expect_b = reference.Run(queries_b);

  BatchRunner runner(dataset_->hin, EngineOptions{}, 2);
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
      ASSERT_TRUE(got[i].status.ok());
      ASSERT_EQ(got[i].result.outliers.size(),
                expected[i].result.outliers.size());
      for (std::size_t j = 0; j < got[i].result.outliers.size(); ++j) {
        EXPECT_EQ(got[i].result.outliers[j].name,
                  expected[i].result.outliers[j].name);
        EXPECT_DOUBLE_EQ(got[i].result.outliers[j].score,
                         expected[i].result.outliers[j].score);
      }
    }
  };
  check(got_a, expect_a);
  check(got_b, expect_b);
}

// Regression: BatchRunner used to share any attached index across its
// worker threads with no SupportsConcurrentUse() check — a silent data
// race for non-concurrent-safe indexes. Such indexes are now rejected
// up front with a clear per-outcome error.
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

  BatchRunner parallel(dataset_->hin, options, 4);
  const auto rejected = parallel.Run(queries);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].status.code(), StatusCode::kFailedPrecondition);

  // A single-worker runner never shares the index: still allowed.
  BatchRunner serial(dataset_->hin, options, 1);
  const auto accepted = serial.Run(queries);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_TRUE(accepted[0].status.ok());
}

// Regression: a 1-worker runner used to build a pool of one, and
// TaskGroup::Wait help-drains the group's own tasks on the caller, so
// the worker and the waiting thread ran ops at the same time — sharing
// an index that NonConcurrentIndexIsRejected lets through because only
// one worker was asked for. A 1-worker runner now runs the plan inline:
// every Lookup comes from the calling thread.
TEST_F(BatchFixture, SingleWorkerRunsOnTheCallingThreadOnly) {
  class ThreadRecordingIndex : public MetaPathIndex {
   public:
    std::optional<IndexHit> Lookup(const TwoStepKey&,
                                   LocalId) const override {
      MutexLock lock(mutex_);
      threads_.insert(std::this_thread::get_id());
      return std::nullopt;
    }
    std::size_t MemoryBytes() const override { return 0; }
    bool SupportsConcurrentUse() const override { return false; }

    std::set<std::thread::id> threads() const {
      MutexLock lock(mutex_);
      return threads_;
    }

   private:
    mutable Mutex mutex_;
    mutable std::set<std::thread::id> threads_ NETOUT_GUARDED_BY(mutex_);
  };
  WorkloadConfig workload;
  workload.num_queries = 24;
  workload.seed = 21;
  const auto queries = GenerateWorkload(*dataset_->hin, "author",
                                        QueryTemplate::kQ1, workload)
                           .value();
  ThreadRecordingIndex index;
  EngineOptions options;
  options.index = &index;
  BatchRunner runner(dataset_->hin, options, 1);
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

// The sharded CachedIndex is concurrent-safe, so sharing one across
// batch workers is supported — and warms across queries: parallel
// outcomes must match the single-threaded un-cached run.
TEST_F(BatchFixture, SharedCachedIndexAcrossWorkers) {
  WorkloadConfig workload;
  workload.num_queries = 24;
  workload.seed = 9;
  const auto queries = GenerateWorkload(*dataset_->hin, "author",
                                        QueryTemplate::kQ1, workload)
                           .value();
  BatchRunner reference(dataset_->hin, EngineOptions{}, 1);
  const auto expected = reference.Run(queries);

  CachedIndex cache;
  EngineOptions options;
  options.index = &cache;
  BatchRunner runner(dataset_->hin, options, 4);
  const auto outcomes = runner.Run(queries);
  ASSERT_EQ(outcomes.size(), expected.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << queries[i];
    ASSERT_EQ(outcomes[i].result.outliers.size(),
              expected[i].result.outliers.size());
    for (std::size_t j = 0; j < outcomes[i].result.outliers.size(); ++j) {
      EXPECT_EQ(outcomes[i].result.outliers[j].name,
                expected[i].result.outliers[j].name);
      EXPECT_DOUBLE_EQ(outcomes[i].result.outliers[j].score,
                       expected[i].result.outliers[j].score);
    }
  }
  EXPECT_GT(cache.stats().insertions, 0u);
}

TEST_F(BatchFixture, EmptyBatch) {
  BatchRunner runner(dataset_->hin, EngineOptions{}, 2);
  EXPECT_TRUE(runner.Run(std::vector<std::string>{}).empty());
}

TEST_F(BatchFixture, ReusableAcrossRuns) {
  BatchRunner runner(dataset_->hin, EngineOptions{}, 3);
  EXPECT_EQ(runner.num_threads(), 3u);
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

}  // namespace
}  // namespace netout
