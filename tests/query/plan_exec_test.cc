#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
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
#include "tests/thread_recording_index.h"

namespace netout {
namespace {

// Physical-plan execution properties: the planned pipeline must return
// the bitwise-identical top-k regardless of thread count, attached
// index, or whether common-subpath elimination ran — CSE only changes
// WHERE vectors get computed, never which additions happen in which
// order (prefix extension replays the same per-hop accumulations).
class PlanExecFixture : public ::testing::Test {
 protected:
  void SetUp() override { hin_ = BuildHubGraph(40); }

  /// `coauthors` authors co-authoring with Hub in venue v<i%4>, with
  /// per-author solo records of varying size so WHERE thresholds bite
  /// unevenly, plus Rex: Hub's one co-author who otherwise publishes in
  /// venue "odd". The type ids come out the same for every size.
  HinPtr BuildHubGraph(int coauthors) {
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
        builder.AddEdgeByName("writes", a, name).CheckOk();
      }
      builder.AddEdgeByName("published_in", name, venue).CheckOk();
    };
    for (int i = 0; i < coauthors; ++i) {
      const std::string who = std::string("a").append(std::to_string(i));
      paper_with({"Hub", who}, std::string("v").append(std::to_string(i % 4)));
      for (int p = 0; p < i % 7; ++p) {
        paper_with({who}, std::string("v").append(std::to_string((i + p) % 4)));
      }
    }
    paper_with({"Hub", "Rex"}, "v0");
    for (int p = 0; p < 6; ++p) paper_with({"Rex"}, "odd");
    return builder.Finish().value();
  }

  QueryPlan Prepare(const std::string& query) { return Prepare(hin_, query); }
  static QueryPlan Prepare(const HinPtr& hin, const std::string& query) {
    const QueryAst ast = ParseQuery(query).value();
    return AnalyzeQuery(*hin, ast).value();
  }

  /// Runs `plan` on `hin` with a pool of `threads` workers (0 = no
  /// pool).
  static QueryResult Run(const HinPtr& hin, const QueryPlan& plan,
                         const MetaPathIndex* index, std::size_t threads,
                         bool cse) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    ExecOptions options;
    options.pool = pool.get();
    options.plan_cse = cse;
    Executor executor(hin, index, options);
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

// The grid runs on two sizes of the same graph: Hub's 41 co-authors
// keep every operator inline, while the wide graph's 601 reach two
// kMinRowsPerShard shards, so its pooled cells run the sharded
// Materialize under every index and with CSE on and off.
TEST_F(PlanExecFixture, TopKBitwiseIdenticalAcrossThreadsIndexesAndCse) {
  const std::string query = R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue : 2.0, author.paper.author,
                author.paper.venue.paper.author
      TOP 10;
  )";
  struct World {
    const char* name;
    HinPtr hin;
    bool fans_out;
  };
  const World worlds[] = {{"hub", hin_, false},
                          {"wide", BuildHubGraph(600), true}};
  for (const World& world : worlds) {
    const QueryPlan plan = Prepare(world.hin, query);
    const QueryResult baseline = Run(world.hin, plan, nullptr, 0, true);
    ASSERT_EQ(baseline.outliers.size(), 10u);
    EXPECT_EQ(baseline.stats.candidate_count >= 2 * kMinRowsPerShard,
              world.fans_out)
        << world.name;

    const auto pm = PmIndex::Build(*world.hin).value();
    std::vector<VertexRef> hot;
    for (LocalId v = 0; v < world.hin->NumVertices(author_); v += 2) {
      hot.push_back(VertexRef{author_, v});
    }
    const auto spm = SpmIndex::BuildForVertices(*world.hin, hot).value();
    CachedIndex cache;

    struct Mode {
      const char* name;
      const MetaPathIndex* index;
    };
    const Mode modes[] = {{"none", nullptr},
                          {"pm", pm.get()},
                          {"spm", spm.get()},
                          {"cache", &cache}};
    // The threads that evaluated rows in the cells with 2+ workers.
    std::set<std::thread::id> pooled_threads;
    for (const Mode& mode : modes) {
      for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
        for (const bool cse : {true, false}) {
          const std::string context =
              std::string(world.name) + " " + mode.name +
              " threads=" + std::to_string(threads) +
              " cse=" + (cse ? "on" : "off");
          if (mode.index == nullptr) {
            ExpectBitwiseEqual(
                baseline, Run(world.hin, plan, nullptr, threads, cse),
                context);
            continue;
          }
          const ThreadRecordingIndex recorder(
              mode.index, /*concurrent=*/true,
              world.fans_out && threads >= 2
                  ? ThreadRecordingIndex::kFanOutPatience
                  : std::chrono::microseconds{0});
          ExpectBitwiseEqual(baseline,
                             Run(world.hin, plan, &recorder, threads, cse),
                             context);
          if (threads >= 2) {
            const std::set<std::thread::id> seen = recorder.threads();
            pooled_threads.insert(seen.begin(), seen.end());
          }
        }
      }
    }
    if (world.fans_out) {
      EXPECT_GT(pooled_threads.size(), 1u) << world.name;
    } else {
      EXPECT_EQ(pooled_threads.size(), 1u) << world.name;
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

// Every query of a batch runs in one shared plan; "unmerged" is each
// query on its own through Engine::Execute. Outcomes must agree query
// by query — status code, and top-k bitwise — at every runner width,
// with and without an index, including the parse-error, empty-candidate
// and empty-reference cases.
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
      R"(FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 3
         JUDGED BY author.paper.venue.paper.author TOP 6;)",
  };
  const auto pm = PmIndex::Build(*hin_).value();
  CachedIndex cache;
  struct Mode {
    const char* name;
    const MetaPathIndex* index;
  };
  const Mode modes[] = {
      {"none", nullptr}, {"pm", pm.get()}, {"cache", &cache}};
  for (const Mode& mode : modes) {
    EngineOptions options;
    options.index = mode.index;
    Engine solo(hin_, options);
    std::vector<Result<QueryResult>> expected;
    for (const std::string& query : queries) {
      expected.push_back(solo.Execute(query));
    }
    for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
      const std::string context = std::string(mode.name) + " threads=" +
                                  std::to_string(threads) + " query ";
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      options.exec.pool = pool.get();
      BatchRunner runner(hin_, options);
      const std::vector<BatchOutcome> actual = runner.Run(queries);
      ASSERT_EQ(actual.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(expected[i].status().code(), actual[i].status.code())
            << context << i;
        if (!expected[i].ok()) continue;
        ExpectBitwiseEqual(expected[i].value(), actual[i].result,
                           context + std::to_string(i));
      }
      // Query 2 failed to parse, 4 has an empty reference set; both
      // isolated. Query 3's candidate set is empty: a successful empty
      // result.
      EXPECT_EQ(actual[2].status.code(), StatusCode::kParseError);
      EXPECT_EQ(actual[4].status.code(), StatusCode::kFailedPrecondition);
      EXPECT_TRUE(actual[3].status.ok());
      EXPECT_TRUE(actual[3].result.outliers.empty());
      // Cross-query sharing is observable: the second query's venue
      // feature was materialized by the first, so its stats report
      // reused vectors.
      EXPECT_GT(actual[1].result.stats.vectors_reused, 0u) << context;
    }
  }
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
  BatchRunner serial(hin_, options);
  const std::vector<BatchOutcome> expected = serial.Run(queries);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    options.exec.pool = &pool;
    BatchRunner runner(hin_, options);
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

  for (const std::size_t threads : {0u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    ExecOptions exec;
    exec.pool = pool.get();
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
