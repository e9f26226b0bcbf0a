#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "index/cached_index.h"
#include "index/pm_index.h"
#include "index/spm_index.h"
#include "query/analyzer.h"
#include "query/batch.h"
#include "query/engine.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/progressive.h"

namespace netout {
namespace {

// Physical-plan execution properties: the planned pipeline must return
// the bitwise-identical top-k regardless of thread count, attached
// index, or whether common-subpath elimination ran — CSE only changes
// WHERE vectors get computed, never which additions happen in which
// order (prefix extension replays the same per-hop accumulations).
class PlanExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder builder;
    author_ = builder.AddVertexType("author").value();
    paper_ = builder.AddVertexType("paper").value();
    venue_ = builder.AddVertexType("venue").value();
    builder.AddEdgeType("writes", author_, paper_).CheckOk();
    builder.AddEdgeType("published_in", paper_, venue_).CheckOk();
    int serial = 0;
    auto paper_with = [&](const std::vector<std::string>& authors,
                          const std::string& venue) {
      // Appended: GCC 12 at -O3 raises a false -Wrestrict on
      // `"p" + std::to_string(...)`.
      const std::string name =
          std::string("p").append(std::to_string(serial++));
      for (const std::string& a : authors) {
        ASSERT_TRUE(builder.AddEdgeByName("writes", a, name).ok());
      }
      ASSERT_TRUE(builder.AddEdgeByName("published_in", name, venue).ok());
    };
    // 40 authors co-authoring with Hub in venue v<i%4>, with per-author
    // solo records of varying size so WHERE thresholds bite unevenly.
    for (int i = 0; i < 40; ++i) {
      const std::string who = std::string("a").append(std::to_string(i));
      paper_with({"Hub", who}, std::string("v").append(std::to_string(i % 4)));
      for (int p = 0; p < i % 7; ++p) {
        paper_with({who}, std::string("v").append(std::to_string((i + p) % 4)));
      }
    }
    paper_with({"Hub", "Rex"}, "v0");
    for (int p = 0; p < 6; ++p) paper_with({"Rex"}, "odd");
    hin_ = builder.Finish().value();
  }

  QueryPlan Prepare(const std::string& query) {
    const QueryAst ast = ParseQuery(query).value();
    return AnalyzeQuery(*hin_, ast).value();
  }

  QueryResult Run(const QueryPlan& plan, const MetaPathIndex* index,
                  std::size_t threads, bool cse) {
    ExecOptions options;
    options.num_threads = threads;
    options.plan_cse = cse;
    Executor executor(hin_, index, options);
    return executor.Run(plan).value();
  }

  static void ExpectBitwiseEqual(const QueryResult& expected,
                                 const QueryResult& actual,
                                 const std::string& context) {
    ASSERT_EQ(expected.outliers.size(), actual.outliers.size()) << context;
    for (std::size_t i = 0; i < expected.outliers.size(); ++i) {
      EXPECT_EQ(expected.outliers[i].name, actual.outliers[i].name)
          << context << " rank " << i;
      // Exact double equality on purpose: the contract is bitwise
      // reproducibility, not tolerance.
      EXPECT_EQ(expected.outliers[i].score, actual.outliers[i].score)
          << context << " rank " << i;
      EXPECT_EQ(expected.outliers[i].zero_visibility,
                actual.outliers[i].zero_visibility)
          << context << " rank " << i;
    }
  }

  TypeId author_, paper_, venue_;
  HinPtr hin_;
};

TEST_F(PlanExecFixture, TopKBitwiseIdenticalAcrossThreadsIndexesAndCse) {
  const QueryPlan plan = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue : 2.0, author.paper.author,
                author.paper.venue.paper.author
      TOP 10;
  )");
  const QueryResult baseline = Run(plan, nullptr, 1, true);
  ASSERT_EQ(baseline.outliers.size(), 10u);

  const auto pm = PmIndex::Build(*hin_).value();
  std::vector<VertexRef> hot;
  for (LocalId v = 0; v < hin_->NumVertices(author_); v += 2) {
    hot.push_back(VertexRef{author_, v});
  }
  const auto spm = SpmIndex::BuildForVertices(*hin_, hot).value();
  CachedIndex cache;

  struct Mode {
    const char* name;
    const MetaPathIndex* index;
  };
  const Mode modes[] = {{"none", nullptr},
                        {"pm", pm.get()},
                        {"spm", spm.get()},
                        {"cache", &cache}};
  for (const Mode& mode : modes) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const bool cse : {true, false}) {
        const QueryResult result = Run(plan, mode.index, threads, cse);
        ExpectBitwiseEqual(baseline, result,
                           std::string(mode.name) + " threads=" +
                               std::to_string(threads) +
                               " cse=" + (cse ? "on" : "off"));
      }
    }
  }
}

TEST_F(PlanExecFixture, BatchedWhereMatchesPerMemberSemantics) {
  // The filter batches each condition path over the whole base set (one
  // sharded materialization per distinct path) instead of re-traversing
  // per member; the observable semantics must stay per-member COUNT of
  // distinct reachable vertices. Verified against hand-counted ground
  // truth on the 42-author set.
  const QueryPlan plan = Prepare(R"(
      FIND OUTLIERS FROM author AS A
           WHERE COUNT(A.paper) > 3
             AND (COUNT(A.paper.venue) >= 3 OR COUNT(A.paper) > 6)
      JUDGED BY author.paper.venue TOP 50;
  )");
  Executor executor(hin_, nullptr, ExecOptions{});
  const QueryResult result = executor.Run(plan).value();
  // Ground truth: author a_i has 1 + (i % 7) papers; its venues are
  // v(i%4), v((i+1)%4), ... — i%7 >= 3 gives >3 papers and >=3 distinct
  // venues (the coauthored paper adds v(i%4) again). i in [0,40) with
  // i%7 in {3,4,5,6} -> 22 authors. Hub has 41 papers across 4 venues;
  // Rex has 7 papers in 2 venues but >6 papers. Total 24.
  EXPECT_EQ(result.stats.candidate_count, 24u);
  // Each distinct condition path materialized once over the full base
  // set (40 a_i + Hub + Rex = 42 authors): the duplicated author.paper
  // atom collapses into one op which also serves as the prefix of
  // author.paper.venue, so the filter costs 2 batches of 42; the
  // feature path materializes over the 24 surviving candidates.
  EXPECT_EQ(result.stats.vectors_materialized, 2u * 42u + 24u);
  // The duplicated COUNT(A.paper) atom is the second demand on a vector
  // batch already materialized for the first atom.
  EXPECT_EQ(result.stats.vectors_reused, 42u);

  // The CSE-off ablation materializes one fresh batch per atom (3 x 42)
  // and never reuses.
  ExecOptions no_cse;
  no_cse.plan_cse = false;
  Executor plain(hin_, nullptr, no_cse);
  const QueryResult unshared = plain.Run(plan).value();
  EXPECT_EQ(unshared.stats.candidate_count, 24u);
  EXPECT_EQ(unshared.stats.vectors_materialized, 3u * 42u + 24u);
  EXPECT_EQ(unshared.stats.vectors_reused, 0u);
}

TEST_F(PlanExecFixture, ReuseCountersAppearInPlanOps) {
  ExecOptions options;
  Executor executor(hin_, nullptr, options);
  const QueryPlan plan = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue, author.paper.author TOP 5;
  )");
  const QueryResult result = executor.Run(plan).value();
  ASSERT_FALSE(result.plan_ops.empty());
  std::size_t shared_materializations = 0;
  for (const PlanOpInfo& op : result.plan_ops) {
    if (op.label == "Materialize" && op.reuse_count > 1) {
      ++shared_materializations;
      EXPECT_TRUE(op.executed);
      EXPECT_GT(op.rows, 0u);
    }
  }
  // The author.paper prefix feeds both feature extensions.
  EXPECT_GE(shared_materializations, 1u);

  // CSE off: two independent full-path materializations, nothing shared
  // and nothing reused — but the answer is identical.
  ExecOptions no_cse;
  no_cse.plan_cse = false;
  Executor plain(hin_, nullptr, no_cse);
  const QueryResult unshared = plain.Run(plan).value();
  EXPECT_EQ(unshared.stats.vectors_reused, 0u);
  ASSERT_EQ(unshared.outliers.size(), result.outliers.size());
  for (std::size_t i = 0; i < result.outliers.size(); ++i) {
    EXPECT_EQ(unshared.outliers[i].name, result.outliers[i].name);
    EXPECT_EQ(unshared.outliers[i].score, result.outliers[i].score);
  }
  // No prefix splits: every materialization is a full-path op (no
  // "extend" nodes), one per feature. (reuse_count stays 2 even here —
  // each mat feeds its score and the top-k visibility probe — so the
  // CSE ablation is visible in the op shapes, not the consumer count.)
  std::size_t unshared_mats = 0;
  for (const PlanOpInfo& op : unshared.plan_ops) {
    if (op.label == "Materialize") {
      ++unshared_mats;
      EXPECT_EQ(op.detail.rfind("path ", 0), 0u) << op.detail;
    }
  }
  EXPECT_EQ(unshared_mats, 2u);
}

TEST_F(PlanExecFixture, MergedBatchMatchesUnmergedAndIsolatesErrors) {
  const std::vector<std::string> queries = {
      R"(FIND OUTLIERS FROM author{"Hub"}.paper.author
         JUDGED BY author.paper.venue TOP 5;)",
      R"(FIND OUTLIERS FROM author{"Hub"}.paper.author
         JUDGED BY author.paper.venue : 2.0, author.paper.author TOP 7;)",
      "SYNTAX ERROR;",
      R"(FIND OUTLIERS FROM author{"Hub"}.paper.author EXCEPT author
         JUDGED BY author.paper.venue TOP 5;)",
      R"(FIND OUTLIERS FROM author
         COMPARED TO author{"Rex"}.paper.author
           EXCEPT author
         JUDGED BY author.paper.venue TOP 5;)",
  };
  EngineOptions options;
  BatchRunner unmerged(hin_, options, 2);
  BatchOptions merge;
  merge.merge_plans = true;
  BatchRunner merged(hin_, options, 2, merge);

  const std::vector<BatchOutcome> expected = unmerged.Run(queries);
  const std::vector<BatchOutcome> actual = merged.Run(queries);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].status.ok(), actual[i].status.ok())
        << "query " << i;
    if (!expected[i].status.ok()) {
      EXPECT_EQ(expected[i].status.code(), actual[i].status.code())
          << "query " << i;
      continue;
    }
    ExpectBitwiseEqual(expected[i].result, actual[i].result,
                       "merged query " + std::to_string(i));
  }
  // Query 2 failed to parse, 4 has an empty reference set; both isolated.
  EXPECT_FALSE(actual[2].status.ok());
  EXPECT_FALSE(actual[4].status.ok());
  EXPECT_EQ(actual[4].status.code(), StatusCode::kFailedPrecondition);
  // Query 3's candidate set is empty: a successful empty result, exactly
  // like unmerged execution.
  EXPECT_TRUE(actual[3].status.ok());
  EXPECT_TRUE(actual[3].result.outliers.empty());
  // Cross-query sharing is observable: the second query's venue feature
  // was materialized by the first, so its stats report reused vectors.
  EXPECT_GT(actual[1].result.stats.vectors_reused, 0u);
}

TEST_F(PlanExecFixture, MergedBatchIdenticalAcrossThreadCounts) {
  std::vector<std::string> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        "FIND OUTLIERS FROM author{\"Hub\"}.paper.author "
        "JUDGED BY author.paper.venue, author.paper.author TOP " +
        std::to_string(3 + i) + ";");
  }
  EngineOptions options;
  BatchOptions merge;
  merge.merge_plans = true;
  BatchRunner serial(hin_, options, 1, merge);
  const std::vector<BatchOutcome> expected = serial.Run(queries);
  for (const std::size_t threads : {2u, 4u}) {
    BatchRunner runner(hin_, options, threads, merge);
    const std::vector<BatchOutcome> actual = runner.Run(queries);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(actual[i].status.ok());
      ExpectBitwiseEqual(expected[i].result, actual[i].result,
                         "threads=" + std::to_string(threads) + " query " +
                             std::to_string(i));
    }
  }
}

TEST_F(PlanExecFixture, ProgressiveStillMatchesExactExecutor) {
  // progressive.cc now routes candidate materialization through the
  // executor's sharded batch primitive; after 100% of references are
  // folded the estimates are exact sums, so the final ranking must
  // agree with plan execution at any thread count.
  const QueryPlan plan = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 3;
  )");
  Executor exact(hin_, nullptr, ExecOptions{});
  const QueryResult expected = exact.Run(plan).value();
  ASSERT_EQ(expected.outliers.size(), 3u);
  EXPECT_EQ(expected.outliers[0].name, "Rex");

  for (const std::size_t threads : {1u, 4u}) {
    ExecOptions exec;
    exec.num_threads = threads;
    ProgressiveExecutor progressive(hin_, nullptr, exec,
                                    ProgressiveOptions{});
    const QueryResult final_result =
        progressive.Run(plan, nullptr).value();
    ASSERT_EQ(final_result.outliers.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(final_result.outliers[i].name, expected.outliers[i].name);
      EXPECT_NEAR(final_result.outliers[i].score,
                  expected.outliers[i].score, 1e-9);
    }
  }
}

}  // namespace
}  // namespace netout
