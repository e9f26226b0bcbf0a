#include "query/executor.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "query/analyzer.h"
#include "query/parser.h"

namespace netout {
namespace {

// A small DBLP-style network with a clear venue outlier:
//   DB crowd: Ava, Liam, Zoe, Mia publish in VLDB/ICDE (3 joint papers
//   with the hub author Hub plus 10 solo papers each).
//   Odd one: Rex co-authors once with Hub but has a *stable* publication
//   record (10 papers) in SIGGRAPH — the Emma pattern of Table 2, which
//   NetOut flags because low venue overlap meets high visibility.
//   Solo: an author with no connection to Hub.
class ExecutorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder builder;
    author_ = builder.AddVertexType("author").value();
    paper_ = builder.AddVertexType("paper").value();
    venue_ = builder.AddVertexType("venue").value();
    builder.AddEdgeType("writes", author_, paper_).CheckOk();
    builder.AddEdgeType("published_in", paper_, venue_).CheckOk();

    int serial = 0;
    auto paper_with = [&](std::initializer_list<const char*> authors,
                          const char* venue) {
      // Appended: GCC 12 at -O3 raises a false -Wrestrict on
      // `"p" + std::to_string(...)`.
      const std::string name =
          std::string("p").append(std::to_string(serial++));
      for (const char* a : authors) {
        ASSERT_TRUE(builder.AddEdgeByName("writes", a, name).ok());
      }
      ASSERT_TRUE(builder.AddEdgeByName("published_in", name, venue).ok());
    };
    for (const char* member : {"Ava", "Liam", "Zoe", "Mia"}) {
      paper_with({"Hub", member}, "VLDB");
      paper_with({"Hub", member}, "VLDB");
      paper_with({"Hub", member}, "ICDE");
      for (int i = 0; i < 7; ++i) paper_with({member}, "VLDB");
      for (int i = 0; i < 3; ++i) paper_with({member}, "ICDE");
    }
    paper_with({"Hub", "Rex"}, "VLDB");
    for (int i = 0; i < 10; ++i) paper_with({"Rex"}, "SIGGRAPH");
    paper_with({"Solo"}, "PODC");
    hin_ = builder.Finish().value();
  }

  QueryResult Run(const char* query, ExecOptions options = {}) {
    const QueryAst ast = ParseQuery(query).value();
    const QueryPlan plan = AnalyzeQuery(*hin_, ast).value();
    Executor executor(hin_, nullptr, options);
    return executor.Run(plan).value();
  }

  static std::vector<std::string> Names(const QueryResult& result) {
    std::vector<std::string> names;
    for (const OutlierEntry& entry : result.outliers) {
      names.push_back(entry.name);
    }
    return names;
  }

  TypeId author_, paper_, venue_;
  HinPtr hin_;
};

TEST_F(ExecutorFixture, CoauthorVenueOutlierQuery) {
  const QueryResult result = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue
      TOP 1;
  )");
  // Candidate set = Hub + his 5 coauthors.
  EXPECT_EQ(result.stats.candidate_count, 6u);
  EXPECT_EQ(result.stats.reference_count, 6u);
  ASSERT_EQ(result.outliers.size(), 1u);
  EXPECT_EQ(result.outliers[0].name, "Rex");
  EXPECT_FALSE(result.outliers[0].zero_visibility);
}

TEST_F(ExecutorFixture, ScoresAreSortedMostOutlyingFirst) {
  const QueryResult result = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue
      TOP 6;
  )");
  ASSERT_EQ(result.outliers.size(), 6u);
  for (std::size_t i = 1; i < result.outliers.size(); ++i) {
    EXPECT_LE(result.outliers[i - 1].score, result.outliers[i].score);
  }
  EXPECT_EQ(result.outliers[0].name, "Rex");
}

TEST_F(ExecutorFixture, ComparedToUsesDistinctReferenceSet) {
  // Rex judged against the whole author population still stands out, but
  // the reference count reflects COMPARED TO.
  const QueryResult result = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      COMPARED TO author
      JUDGED BY author.paper.venue
      TOP 2;
  )");
  EXPECT_EQ(result.stats.candidate_count, 6u);
  EXPECT_EQ(result.stats.reference_count, 7u);  // all authors
  EXPECT_EQ(result.outliers[0].name, "Rex");
}

TEST_F(ExecutorFixture, WhereCountFiltersCandidates) {
  // Papers per author: Hub 13, each member 13, Rex 11, Solo 1.
  const QueryResult result = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author AS A
           WHERE COUNT(A.paper) >= 12
      JUDGED BY author.paper.venue
      TOP 10;
  )");
  // Rex (11 papers) is filtered out; Hub and the four members remain.
  EXPECT_EQ(result.stats.candidate_count, 5u);
  const std::vector<std::string> names = Names(result);
  EXPECT_EQ(std::count(names.begin(), names.end(), "Rex"), 0);
}

TEST_F(ExecutorFixture, WhereBooleanCombinators) {
  const QueryResult and_result = Run(R"(
      FIND OUTLIERS FROM author AS A
           WHERE COUNT(A.paper) >= 4 AND COUNT(A.paper.venue) <= 2
      JUDGED BY author.paper.venue TOP 10;
  )");
  // >=4 papers and at most 2 distinct venues: Hub (13 papers, 2 venues),
  // the members (13, 2) and Rex (11, 2); Solo (1 paper) is out.
  EXPECT_EQ(and_result.stats.candidate_count, 6u);

  const QueryResult not_result = Run(R"(
      FIND OUTLIERS FROM author AS A
           WHERE NOT COUNT(A.paper) >= 4
      JUDGED BY author.paper.venue TOP 10;
  )");
  EXPECT_EQ(not_result.stats.candidate_count, 1u);  // Solo (1 paper)

  const QueryResult or_result = Run(R"(
      FIND OUTLIERS FROM author AS A
           WHERE COUNT(A.paper) < 2 OR COUNT(A.paper) = 11
      JUDGED BY author.paper.venue TOP 10;
  )");
  EXPECT_EQ(or_result.stats.candidate_count, 2u);  // Solo and Rex
}

TEST_F(ExecutorFixture, UnionIntersectExceptSemantics) {
  const QueryResult u = Run(R"(
      FIND OUTLIERS FROM venue{"SIGGRAPH"}.paper.author
        UNION venue{"PODC"}.paper.author
      JUDGED BY author.paper.venue TOP 10;
  )");
  EXPECT_EQ(u.stats.candidate_count, 2u);  // Rex, Solo

  const QueryResult i = Run(R"(
      FIND OUTLIERS FROM venue{"VLDB"}.paper.author
        INTERSECT venue{"SIGGRAPH"}.paper.author
      JUDGED BY author.paper.venue TOP 10;
  )");
  EXPECT_EQ(i.stats.candidate_count, 1u);  // Rex

  const QueryResult e = Run(R"(
      FIND OUTLIERS FROM venue{"VLDB"}.paper.author
        EXCEPT author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 10;
  )");
  EXPECT_EQ(e.stats.candidate_count, 0u);  // every VLDB author is a coauthor
  EXPECT_TRUE(e.outliers.empty());
}

TEST_F(ExecutorFixture, AnchorOnlyPrimaryIsSingleton) {
  const QueryResult result = Run(R"(
      FIND OUTLIERS FROM author{"Rex"}
      COMPARED TO author
      JUDGED BY author.paper.venue TOP 5;
  )");
  EXPECT_EQ(result.stats.candidate_count, 1u);
  EXPECT_EQ(Names(result), (std::vector<std::string>{"Rex"}));
}

TEST_F(ExecutorFixture, EmptyReferenceSetFailsPrecondition) {
  const QueryAst ast = ParseQuery(R"(
      FIND OUTLIERS FROM author
      COMPARED TO venue{"VLDB"}.paper.author
        INTERSECT venue{"PODC"}.paper.author
      JUDGED BY author.paper.venue;
  )")
                           .value();
  const QueryPlan plan = AnalyzeQuery(*hin_, ast).value();
  Executor executor(hin_, nullptr, ExecOptions{});
  auto result = executor.Run(plan);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorFixture, MultiPathWeightedCombination) {
  const QueryResult result = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue : 2.0, author.paper.author
      TOP 6;
  )");
  ASSERT_EQ(result.outliers.size(), 6u);
  // Rex deviates on both venues and coauthors; still first.
  EXPECT_EQ(result.outliers[0].name, "Rex");
}

TEST_F(ExecutorFixture, NaiveAndFactoredNetOutAgreeEndToEnd) {
  ExecOptions naive;
  naive.use_factored_netout = false;
  const QueryResult fast = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 6;
  )");
  const QueryResult slow = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 6;
  )",
                               naive);
  ASSERT_EQ(fast.outliers.size(), slow.outliers.size());
  for (std::size_t i = 0; i < fast.outliers.size(); ++i) {
    EXPECT_EQ(fast.outliers[i].name, slow.outliers[i].name);
    EXPECT_NEAR(fast.outliers[i].score, slow.outliers[i].score, 1e-9);
  }
}

TEST_F(ExecutorFixture, ZeroVisibilityHandling) {
  // Solo compared against the DB crowd by coauthor overlap: the feature
  // path author.paper.author gives Solo only himself; against references
  // he has zero *connectivity* but positive visibility. To force a
  // zero-visibility candidate we use an isolated author added here.
  GraphBuilder builder;
  const TypeId author = builder.AddVertexType("author").value();
  const TypeId paper = builder.AddVertexType("paper").value();
  builder.AddEdgeType("writes", author, paper).CheckOk();
  ASSERT_TRUE(builder.AddEdgeByName("writes", "Writer", "p1").ok());
  builder.AddVertex(author, "Ghost").CheckOk();
  const HinPtr hin = builder.Finish().value();

  const QueryAst ast = ParseQuery(R"(
      FIND OUTLIERS FROM author
      JUDGED BY author.paper TOP 5;
  )")
                           .value();
  const QueryPlan plan = AnalyzeQuery(*hin, ast).value();

  Executor keep(hin, nullptr, ExecOptions{});
  const QueryResult with_ghost = keep.Run(plan).value();
  ASSERT_EQ(with_ghost.outliers.size(), 2u);
  EXPECT_EQ(with_ghost.outliers[0].name, "Ghost");
  EXPECT_TRUE(with_ghost.outliers[0].zero_visibility);
  EXPECT_EQ(with_ghost.outliers[0].score, 0.0);

  ExecOptions skip;
  skip.skip_zero_visibility = true;
  Executor skipper(hin, nullptr, skip);
  const QueryResult without_ghost = skipper.Run(plan).value();
  ASSERT_EQ(without_ghost.outliers.size(), 1u);
  EXPECT_EQ(without_ghost.outliers[0].name, "Writer");
}

TEST_F(ExecutorFixture, StatsArePopulated) {
  const QueryResult result = Run(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 3;
  )");
  EXPECT_GT(result.stats.total_nanos, 0);
  EXPECT_GT(result.stats.eval.not_indexed.TotalNanos(), 0);
  EXPECT_EQ(result.stats.eval.indexed.TotalNanos(), 0);  // no index
  EXPECT_GE(result.stats.scoring.TotalNanos(), 0);
}

TEST_F(ExecutorFixture, EvaluateSetReturnsSortedRefs) {
  const QueryAst ast = ParseQuery(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue;
  )")
                           .value();
  const QueryPlan plan = AnalyzeQuery(*hin_, ast).value();
  Executor executor(hin_, nullptr, ExecOptions{});
  const std::vector<VertexRef> members =
      executor.EvaluateSet(plan.candidate).value();
  EXPECT_EQ(members.size(), 6u);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  for (const VertexRef& member : members) {
    EXPECT_EQ(member.type, author_);
  }
}

}  // namespace
}  // namespace netout
