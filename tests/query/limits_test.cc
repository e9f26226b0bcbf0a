// Deadline / cancellation / memory-budget semantics of the executor,
// batch runner and progressive strategy (the `robustness` suite): limits
// must stop work promptly and cleanly, degrade per StopPolicy, never
// poison unrelated queries of a batch, and — when armed but generous —
// leave results bitwise identical to an unlimited run.

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "datagen/biblio_gen.h"
#include "index/cached_index.h"
#include "metapath/evaluator.h"
#include "query/analyzer.h"
#include "query/batch.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/progressive.h"
#include "tests/thread_recording_index.h"

namespace netout {
namespace {

class LimitsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BiblioConfig config;
    config.seed = 17;
    // 600 authors: a query over all of them (WideQuery) materializes past
    // two kMinRowsPerShard shards, so its pooled runs go sharded.
    config.num_areas = 3;
    config.authors_per_area = 200;
    config.papers_per_area = 400;
    config.venues_per_area = 4;
    config.terms_per_area = 30;
    config.shared_terms = 12;
    dataset_ = new BiblioDataset(GenerateBiblio(config).value());
  }
  static void TearDownTestSuite() { delete dataset_; }

  static QueryPlan MakePlan(const std::string& query) {
    return AnalyzeQuery(*dataset_->hin, ParseQuery(query).value()).value();
  }

  static std::string StarQuery(std::size_t star = 0) {
    return "FIND OUTLIERS FROM author{\"" + dataset_->star_names[star] +
           "\"}.paper.author JUDGED BY author.paper.venue TOP 5;";
  }

  static std::string WideQuery() {
    return "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 5;";
  }

  static BiblioDataset* dataset_;
};

BiblioDataset* LimitsFixture::dataset_ = nullptr;

TEST_F(LimitsFixture, ZeroDeadlineDegradesPromptlyAcrossThreadCounts) {
  for (const std::string& query : {StarQuery(), WideQuery()}) {
    const QueryPlan plan = MakePlan(query);
    for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      ExecOptions options;
      options.pool = pool.get();
      options.timeout_millis = 0;  // expired before the first operator
      options.stop_policy = StopPolicy::kPartial;
      Executor executor(dataset_->hin, nullptr, options);
      const QueryResult result = executor.Run(plan).value();
      EXPECT_TRUE(result.degraded) << "threads=" << threads;
      EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
      EXPECT_TRUE(result.outliers.empty());
    }
  }
}

TEST_F(LimitsFixture, ZeroDeadlineErrorsUnderErrorPolicy) {
  const QueryPlan plan = MakePlan(StarQuery());
  ExecOptions options;
  options.timeout_millis = 0;
  options.stop_policy = StopPolicy::kError;
  Executor executor(dataset_->hin, nullptr, options);
  EXPECT_EQ(executor.Run(plan).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(LimitsFixture, BudgetExhaustionReportsBudgetReason) {
  const QueryPlan plan = MakePlan(StarQuery());
  ExecOptions options;
  options.memory_budget_bytes = 1;  // the first vector already overflows
  options.stop_policy = StopPolicy::kPartial;
  Executor executor(dataset_->hin, nullptr, options);
  const QueryResult partial = executor.Run(plan).value();
  EXPECT_TRUE(partial.degraded);
  EXPECT_EQ(partial.stop_reason, StopReason::kBudget);

  options.stop_policy = StopPolicy::kError;
  Executor strict(dataset_->hin, nullptr, options);
  EXPECT_EQ(strict.Run(plan).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(LimitsFixture, ExternalCancelStopsTheRun) {
  const QueryPlan plan = MakePlan(StarQuery());
  CancellationToken external;
  external.RequestCancel();
  ExecOptions options;
  options.stop_policy = StopPolicy::kError;
  Executor executor(dataset_->hin, nullptr, options);
  EXPECT_EQ(executor.Run(plan, &external).status().code(),
            StatusCode::kCancelled);

  options.stop_policy = StopPolicy::kPartial;
  Executor lenient(dataset_->hin, nullptr, options);
  const QueryResult result = lenient.Run(plan, &external).value();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
}

// Armed-but-untripped limits must not perturb results: every poll is a
// no-op and every charge just counts, so outliers are bitwise identical
// to the unlimited run — across thread counts and with the cache index.
// The wide query's pooled runs charge the budget from several shards at
// once.
TEST_F(LimitsFixture, GenerousLimitsAreBitwiseInvisible) {
  for (const std::string& query : {StarQuery(), WideQuery()}) {
    const QueryPlan plan = MakePlan(query);
    Executor baseline(dataset_->hin, nullptr, ExecOptions{});
    const QueryResult expected = baseline.Run(plan).value();
    ASSERT_FALSE(expected.outliers.empty());
    const bool wide = expected.stats.candidate_count >= 2 * kMinRowsPerShard;
    EXPECT_EQ(wide, query == WideQuery());

    CachedIndex cache;
    // The threads that evaluated rows in the cached cells with 2+ workers.
    std::set<std::thread::id> pooled_threads;
    for (const bool with_cache : {false, true}) {
      for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        ExecOptions options;
        options.pool = pool.get();
        options.timeout_millis = 3'600'000;            // 1 h: never trips
        options.memory_budget_bytes = std::size_t{1} << 40;  // 1 TiB
        options.stop_policy = StopPolicy::kPartial;
        const ThreadRecordingIndex recorder(
            &cache, /*concurrent=*/true,
            wide && threads >= 2 ? ThreadRecordingIndex::kFanOutPatience
                                 : std::chrono::microseconds{0});
        Executor limited(dataset_->hin, with_cache ? &recorder : nullptr,
                         options);
        const QueryResult got = limited.Run(plan).value();
        EXPECT_FALSE(got.degraded);
        EXPECT_EQ(got.stop_reason, StopReason::kNone);
        ASSERT_EQ(got.outliers.size(), expected.outliers.size())
            << "threads=" << threads << " cache=" << with_cache;
        for (std::size_t i = 0; i < expected.outliers.size(); ++i) {
          EXPECT_EQ(got.outliers[i].name, expected.outliers[i].name);
          EXPECT_EQ(got.outliers[i].score, expected.outliers[i].score)
              << "threads=" << threads << " cache=" << with_cache;
        }
        if (with_cache && threads >= 2) {
          const std::set<std::thread::id> seen = recorder.threads();
          pooled_threads.insert(seen.begin(), seen.end());
        }
      }
    }
    EXPECT_EQ(pooled_threads.size() > 1, wide) << query;
  }
}

// A budget that trips halfway through the wide query's Materialize:
// with a pool, the trip lands inside one shard while the others run or
// wait in the queue. Every width must stop with the budget reason and
// no ranking — a skipped shard's unwritten rows never reach scoring.
TEST_F(LimitsFixture, BudgetTripInsideShardedMaterializeStopsCleanly) {
  const QueryPlan plan = MakePlan(WideQuery());
  ASSERT_FALSE(plan.features.empty());
  std::size_t full_bytes = 0;
  NeighborVectorEvaluator evaluator(dataset_->hin, nullptr);
  for (LocalId v = 0; v < dataset_->hin->NumVertices(dataset_->author_type);
       ++v) {
    full_bytes += evaluator
                      .Evaluate(VertexRef{dataset_->author_type, v},
                                plan.features[0].path, nullptr)
                      .value()
                      .MemoryBytes();
  }
  for (const StopPolicy policy : {StopPolicy::kPartial, StopPolicy::kError}) {
    for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      ExecOptions options;
      options.pool = pool.get();
      options.memory_budget_bytes = full_bytes / 2;
      options.stop_policy = policy;
      Executor executor(dataset_->hin, nullptr, options);
      const Result<QueryResult> result = executor.Run(plan);
      if (policy == StopPolicy::kError) {
        EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
            << "threads=" << threads;
        continue;
      }
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result.value().degraded) << "threads=" << threads;
      EXPECT_EQ(result.value().stop_reason, StopReason::kBudget);
      EXPECT_TRUE(result.value().outliers.empty()) << "threads=" << threads;
    }
  }
}

TEST_F(LimitsFixture, BatchCancelTargetsOnlyOneQuery) {
  CancellationToken cancel_second;
  cancel_second.RequestCancel();
  const std::vector<BatchQuery> queries = {
      {StarQuery(0), nullptr},
      {StarQuery(1), &cancel_second},
      {StarQuery(2), nullptr},
  };
  ThreadPool pool(2);
  EngineOptions engine_options;
  engine_options.exec.pool = &pool;
  BatchRunner runner(dataset_->hin, engine_options);
  const auto outcomes = runner.Run(queries);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[1].status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(outcomes[2].status.ok());
  EXPECT_FALSE(outcomes[0].result.outliers.empty());
  EXPECT_FALSE(outcomes[2].result.outliers.empty());
}

// In a batch's shared DAG a stopped query must neither alter nor delay the
// others: the unaffected query's outliers match its solo execution
// bitwise.
TEST_F(LimitsFixture, MergedBatchStopIsIsolated) {
  Engine solo(dataset_->hin);
  const QueryResult expected = solo.Execute(StarQuery(1)).value();
  ASSERT_FALSE(expected.outliers.empty());

  CancellationToken cancel_first;
  cancel_first.RequestCancel();
  const std::vector<BatchQuery> queries = {
      {StarQuery(0), &cancel_first},
      {StarQuery(1), nullptr},
  };
  ThreadPool pool(2);
  EngineOptions engine_options;
  engine_options.exec.pool = &pool;
  BatchRunner runner(dataset_->hin, engine_options);
  const auto outcomes = runner.Run(queries);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(outcomes[1].status.ok());
  ASSERT_EQ(outcomes[1].result.outliers.size(), expected.outliers.size());
  for (std::size_t i = 0; i < expected.outliers.size(); ++i) {
    EXPECT_EQ(outcomes[1].result.outliers[i].name,
              expected.outliers[i].name);
    EXPECT_EQ(outcomes[1].result.outliers[i].score,
              expected.outliers[i].score);
  }
}

// Under kPartial a batch degrades the stopped query instead of
// failing it.
TEST_F(LimitsFixture, MergedBatchDegradesStoppedQueryUnderPartialPolicy) {
  CancellationToken cancel_first;
  cancel_first.RequestCancel();
  const std::vector<BatchQuery> queries = {
      {StarQuery(0), &cancel_first},
      {StarQuery(1), nullptr},
  };
  ThreadPool pool(2);
  EngineOptions engine_options;
  engine_options.exec.stop_policy = StopPolicy::kPartial;
  engine_options.exec.pool = &pool;
  BatchRunner runner(dataset_->hin, engine_options);
  const auto outcomes = runner.Run(queries);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].status.ok());
  EXPECT_TRUE(outcomes[0].result.degraded);
  EXPECT_EQ(outcomes[0].result.stop_reason, StopReason::kCancelled);
  ASSERT_TRUE(outcomes[1].status.ok());
  EXPECT_FALSE(outcomes[1].result.degraded);
  EXPECT_FALSE(outcomes[1].result.outliers.empty());
}

// A cancel that lands mid-progressive-run keeps the last published
// snapshot as the degraded answer.
TEST_F(LimitsFixture, ProgressiveCancelYieldsLastSnapshot) {
  const QueryPlan plan = MakePlan(StarQuery());
  ExecOptions exec;
  exec.stop_policy = StopPolicy::kPartial;
  ProgressiveOptions options;
  options.num_batches = 8;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, exec, options);

  CancellationToken external;
  std::vector<OutlierEntry> first_snapshot_top;
  int snapshots = 0;
  const QueryResult result =
      progressive
          .Run(plan,
               [&](const ProgressiveSnapshot& snapshot) {
                 ++snapshots;
                 if (snapshots == 1) {
                   first_snapshot_top = snapshot.top;
                   external.RequestCancel();  // lands before batch 2
                 }
                 return true;
               },
               &external)
          .value();
  EXPECT_EQ(snapshots, 1);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  ASSERT_EQ(result.outliers.size(), first_snapshot_top.size());
  for (std::size_t i = 0; i < first_snapshot_top.size(); ++i) {
    EXPECT_EQ(result.outliers[i].name, first_snapshot_top[i].name);
    EXPECT_EQ(result.outliers[i].score, first_snapshot_top[i].score);
  }
}

// Progressive + zero deadline + kError must fail cleanly (no partial
// state, no crash).
TEST_F(LimitsFixture, ProgressiveZeroDeadlineErrors) {
  const QueryPlan plan = MakePlan(StarQuery());
  ExecOptions exec;
  exec.timeout_millis = 0;
  exec.stop_policy = StopPolicy::kError;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, exec,
                                  ProgressiveOptions{});
  EXPECT_EQ(progressive.Run(plan, nullptr).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace netout
