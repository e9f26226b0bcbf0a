#include "query/progressive.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datagen/biblio_gen.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "query/result_json.h"

namespace netout {
namespace {

class ProgressiveFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BiblioConfig config;
    config.seed = 11;
    config.num_areas = 3;
    config.authors_per_area = 70;
    config.papers_per_area = 250;
    config.venues_per_area = 5;
    config.terms_per_area = 40;
    config.shared_terms = 20;
    config.cross_area_coauthor_prob = 0.0;
    dataset_ = new BiblioDataset(GenerateBiblio(config).value());
  }
  static void TearDownTestSuite() { delete dataset_; }

  QueryPlan MakePlan(const std::string& query) {
    return AnalyzeQuery(*dataset_->hin, ParseQuery(query).value()).value();
  }

  std::string StarQuery(const char* extra = "") {
    return "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
           "\"}.paper.author JUDGED BY author.paper.venue " + extra +
           " TOP 5;";
  }

  static BiblioDataset* dataset_;
};

BiblioDataset* ProgressiveFixture::dataset_ = nullptr;

TEST_F(ProgressiveFixture, FinalSnapshotMatchesExactExecution) {
  const QueryPlan plan = MakePlan(StarQuery());
  Executor exact(dataset_->hin, nullptr, ExecOptions{});
  const QueryResult expected = exact.Run(plan).value();

  ProgressiveOptions options;
  options.num_batches = 7;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  ProgressiveSnapshot last;
  int snapshots = 0;
  const QueryResult result =
      progressive
          .Run(plan,
               [&](const ProgressiveSnapshot& snapshot) {
                 ++snapshots;
                 last = snapshot;
                 return true;
               })
          .value();
  EXPECT_EQ(snapshots, 7);
  EXPECT_TRUE(last.final);
  EXPECT_DOUBLE_EQ(last.fraction_processed, 1.0);
  ASSERT_EQ(result.outliers.size(), expected.outliers.size());
  for (std::size_t i = 0; i < expected.outliers.size(); ++i) {
    EXPECT_EQ(result.outliers[i].name, expected.outliers[i].name);
    EXPECT_NEAR(result.outliers[i].score, expected.outliers[i].score, 1e-9);
  }
}

TEST_F(ProgressiveFixture, EstimatesConvergeTowardExactScores) {
  const QueryPlan plan = MakePlan(StarQuery());
  Executor exact(dataset_->hin, nullptr, ExecOptions{});
  const double exact_top = exact.Run(plan).value().outliers[0].score;

  ProgressiveOptions options;
  options.num_batches = 10;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  std::vector<double> top_estimates;
  progressive
      .Run(plan,
           [&](const ProgressiveSnapshot& snapshot) {
             top_estimates.push_back(snapshot.top[0].score);
             return true;
           })
      .CheckOk();
  ASSERT_EQ(top_estimates.size(), 10u);
  // The last estimate is exact; the last error is no larger than the
  // first (convergence, allowing sampling noise in between).
  EXPECT_NEAR(top_estimates.back(), exact_top, 1e-9);
}

TEST_F(ProgressiveFixture, StandardErrorShrinks) {
  const QueryPlan plan = MakePlan(StarQuery());
  ProgressiveOptions options;
  options.num_batches = 10;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  std::vector<double> errors;
  progressive
      .Run(plan,
           [&](const ProgressiveSnapshot& snapshot) {
             EXPECT_EQ(snapshot.top.size(), snapshot.standard_error.size());
             double total = 0.0;
             for (double se : snapshot.standard_error) total += se;
             errors.push_back(total);
             return true;
           })
      .CheckOk();
  // First snapshot has a single batch -> zero error by convention; from
  // the second on the error is positive and the last is below the peak.
  ASSERT_GE(errors.size(), 3u);
  EXPECT_DOUBLE_EQ(errors[0], 0.0);
  double peak = 0.0;
  for (double e : errors) peak = std::max(peak, e);
  EXPECT_GT(peak, 0.0);
  EXPECT_LT(errors.back(), peak + 1e-12);
}

TEST_F(ProgressiveFixture, EarlyStopReturnsApproximateAnswer) {
  const QueryPlan plan = MakePlan(StarQuery());
  ProgressiveOptions options;
  options.num_batches = 10;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  int snapshots = 0;
  const QueryResult result =
      progressive
          .Run(plan,
               [&](const ProgressiveSnapshot& snapshot) {
                 ++snapshots;
                 return snapshot.fraction_processed < 0.25;  // stop early
               })
          .value();
  EXPECT_LT(snapshots, 10);
  EXPECT_EQ(result.outliers.size(), 5u);  // still a usable top-k
}

// Regression: a callback stop used to return the approximate answer
// with no marker at all — indistinguishable from an exact result. It
// must now be flagged degraded with the callback stop reason.
TEST_F(ProgressiveFixture, CallbackStopMarksResultDegraded) {
  const QueryPlan plan = MakePlan(StarQuery());
  ProgressiveOptions options;
  options.num_batches = 10;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  int snapshots = 0;
  const QueryResult result =
      progressive
          .Run(plan,
               [&](const ProgressiveSnapshot&) { return ++snapshots < 2; })
          .value();
  EXPECT_EQ(snapshots, 2);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stop_reason, StopReason::kCallback);
}

// A "stop" on the final snapshot accepted the exact answer — nothing
// was cut short, so the result must NOT be marked degraded.
TEST_F(ProgressiveFixture, StopOnFinalSnapshotIsNotDegraded) {
  const QueryPlan plan = MakePlan(StarQuery());
  ProgressiveOptions options;
  options.num_batches = 4;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  const QueryResult result =
      progressive
          .Run(plan,
               [&](const ProgressiveSnapshot& snapshot) {
                 return !snapshot.final;  // "stop" exactly on the last one
               })
          .value();
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.stop_reason, StopReason::kNone);
}

// Scoring time has one clock and one field: stages.score_nanos. The
// JSON result's "scoring_ms" is that field in milliseconds, not a
// second accumulator that could disagree with it.
TEST_F(ProgressiveFixture, ScoringTimeIsCountedOnce) {
  const QueryPlan plan = MakePlan(StarQuery());
  ProgressiveOptions options;
  options.num_batches = 6;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  const QueryResult result = progressive.Run(plan, nullptr).value();
  EXPECT_GT(result.stats.stages.score_nanos, 0);
  const JsonValue json =
      JsonParse(QueryResultToJson(*dataset_->hin, result)).value();
  EXPECT_DOUBLE_EQ(json.Find("stats")->Find("scoring_ms")->number_value(),
                   static_cast<double>(result.stats.stages.score_nanos) /
                       1e6);
}

TEST_F(ProgressiveFixture, MultiPathWeightedAverageSupported) {
  const QueryPlan plan = MakePlan(
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.venue : 2.0, "
      "author.paper.term TOP 5;");
  Executor exact(dataset_->hin, nullptr, ExecOptions{});
  const QueryResult expected = exact.Run(plan).value();
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  ProgressiveOptions{});
  const QueryResult result = progressive.Run(plan, nullptr).value();
  ASSERT_EQ(result.outliers.size(), expected.outliers.size());
  for (std::size_t i = 0; i < expected.outliers.size(); ++i) {
    EXPECT_EQ(result.outliers[i].name, expected.outliers[i].name);
    EXPECT_NEAR(result.outliers[i].score, expected.outliers[i].score, 1e-9);
  }
}

TEST_F(ProgressiveFixture, RejectsUnsupportedMeasuresAndCombiners) {
  const QueryPlan lof_plan = MakePlan(StarQuery("USING MEASURE lof"));
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  ProgressiveOptions{});
  EXPECT_EQ(progressive.Run(lof_plan, nullptr).status().code(),
            StatusCode::kUnimplemented);
  const QueryPlan rank_plan = MakePlan(StarQuery("COMBINE BY rank"));
  EXPECT_EQ(progressive.Run(rank_plan, nullptr).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(ProgressiveFixture, SingleBatchDegeneratesToExact) {
  const QueryPlan plan = MakePlan(StarQuery());
  ProgressiveOptions options;
  options.num_batches = 1;
  ProgressiveExecutor progressive(dataset_->hin, nullptr, ExecOptions{},
                                  options);
  int snapshots = 0;
  progressive
      .Run(plan,
           [&](const ProgressiveSnapshot& snapshot) {
             ++snapshots;
             EXPECT_TRUE(snapshot.final);
             return true;
           })
      .CheckOk();
  EXPECT_EQ(snapshots, 1);
}

}  // namespace
}  // namespace netout
