#include "query/planner.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "index/pm_index.h"
#include "query/analyzer.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/physical_plan.h"

namespace netout {
namespace {

// Golden EXPLAIN PLAN snapshots: the static rendering (no runtime
// annotations) is deterministic, so these tests pin the exact operator
// tree the planner produces — shape, sharing, index-mode annotations
// and back-references. Structural assertions (op-kind counts) guard the
// same invariants less brittly; both fail loudly if the lowering drifts.
class PlannerFixture : public ::testing::Test {
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
    for (const char* member : {"Ava", "Liam", "Zoe"}) {
      paper_with({"Hub", member}, "VLDB");
      paper_with({member}, "ICDE");
    }
    paper_with({"Hub", "Rex"}, "VLDB");
    paper_with({"Rex"}, "SIGGRAPH");
    hin_ = builder.Finish().value();
  }

  QueryPlan Prepare(const char* query) {
    const QueryAst ast = ParseQuery(query).value();
    return AnalyzeQuery(*hin_, ast).value();
  }

  std::string Explain(const char* query,
                      const MetaPathIndex* index = nullptr,
                      bool cse = true) {
    EngineOptions options;
    options.index = index;
    options.exec.plan_cse = cse;
    Engine engine(hin_, options);
    return engine.ExplainPlan(query).value();
  }

  static std::size_t CountKind(const PhysicalPlan& plan, PhysOpKind kind) {
    std::size_t count = 0;
    for (const PhysicalOp& op : plan.ops) {
      if (op.kind == kind) ++count;
    }
    return count;
  }

  TypeId author_, paper_, venue_;
  HinPtr hin_;
};

TEST_F(PlannerFixture, SharedPrefixFeaturesGolden) {
  // Three features over one candidate set, all sharing the author.paper
  // prefix: one prefix materialization, three one-hop extensions.
  const std::string explain = Explain(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue : 2.0, author.paper.author
      TOP 5;
  )");
  EXPECT_EQ(explain,
            "#7 TopK k=5\n"
            "  #6 Combine weighted-average weights [2, 1]\n"
            "    #4 Score netout\n"
            "      #0 EvalSet author{\"Hub\"} via author.paper.author "
            "[traverse] (shared x6)\n"
            "      #0 EvalSet author{\"Hub\"} via author.paper.author "
            "(see above)\n"
            "      #3 Materialize extend paper.venue [traverse] "
            "(shared x2)\n"
            "        #1 Materialize path author.paper [traverse] "
            "(shared x2)\n"
            "          #0 EvalSet author{\"Hub\"} via author.paper.author "
            "(see above)\n"
            "    #5 Score netout\n"
            "      #0 EvalSet author{\"Hub\"} via author.paper.author "
            "(see above)\n"
            "      #0 EvalSet author{\"Hub\"} via author.paper.author "
            "(see above)\n"
            "      #2 Materialize extend paper.author [traverse] "
            "(shared x2)\n"
            "        #1 Materialize path author.paper (see above)\n"
            "  #0 EvalSet author{\"Hub\"} via author.paper.author "
            "(see above)\n"
            "  #3 Materialize extend paper.venue (see above)\n"
            "  #2 Materialize extend paper.author (see above)\n");
  // The acceptance invariant, independent of formatting: at least one
  // materialization node shared by more than one consumer.
  EXPECT_NE(explain.find("Materialize path author.paper [traverse] "
                         "(shared x2)"),
            std::string::npos);
}

TEST_F(PlannerFixture, UnionWithWhereGolden) {
  const std::string explain = Explain(R"(
      FIND OUTLIERS FROM venue{"VLDB"}.paper.author AS A
             WHERE COUNT(A.paper) > 1
        UNION venue{"ICDE"}.paper.author
      JUDGED BY author.paper.venue
      TOP 3;
  )");
  EXPECT_EQ(explain,
            "#8 TopK k=3\n"
            "  #7 Combine weighted-average weights [1]\n"
            "    #6 Score netout\n"
            "      #4 EvalSet UNION (shared x4)\n"
            "        #2 Filter WHERE COUNT(author.paper) > 1\n"
            "          #0 EvalSet venue{\"VLDB\"} via venue.paper.author "
            "[traverse] (shared x2)\n"
            "          #1 Materialize path author.paper [traverse]\n"
            "            #0 EvalSet venue{\"VLDB\"} via venue.paper.author "
            "(see above)\n"
            "        #3 EvalSet venue{\"ICDE\"} via venue.paper.author "
            "[traverse]\n"
            "      #4 EvalSet UNION (see above)\n"
            "      #5 Materialize path author.paper.venue [traverse] "
            "(shared x2)\n"
            "        #4 EvalSet UNION (see above)\n"
            "  #4 EvalSet UNION (see above)\n"
            "  #5 Materialize path author.paper.venue (see above)\n");
}

TEST_F(PlannerFixture, ComparedToSharedSubexpressionIsLoweredOnce) {
  // Sc and Sr both contain venue{"VLDB"}.paper.author: the primary is
  // interned once and consumed by both the candidate root and the
  // INTERSECT reference.
  const QueryPlan plan = Prepare(R"(
      FIND OUTLIERS FROM venue{"VLDB"}.paper.author
      COMPARED TO venue{"VLDB"}.paper.author
        INTERSECT author{"Hub"}.paper.author
      JUDGED BY author.paper.venue
      TOP 3;
  )");
  Planner planner(*hin_, PlannerOptions{});
  planner.AddQuery(plan);
  const PhysicalPlan physical = planner.Take();
  // EvalSet ops: the VLDB primary (shared by Sc and the INTERSECT's
  // left arm), the Hub primary, the INTERSECT, and the candidate+
  // reference members union features materialize over — not five.
  EXPECT_EQ(CountKind(physical, PhysOpKind::kEvalSet), 4u);
  const PlanQuery& entry = physical.queries[0];
  EXPECT_NE(entry.candidate_op, entry.reference_op);
  EXPECT_GT(physical.consumer_count[entry.candidate_op], 1u);
}

TEST_F(PlannerFixture, MergedWorkloadSharesAcrossQueries) {
  // Two queries over the same candidate set with one overlapping
  // feature: the merged plan materializes author.paper.venue once.
  const QueryPlan q1 = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 3;
  )");
  const QueryPlan q2 = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue : 3.0, author.paper.author TOP 5;
  )");
  Planner planner(*hin_, PlannerOptions{});
  planner.AddQuery(q1);
  planner.AddQuery(q2);
  const PhysicalPlan physical = planner.Take();
  ASSERT_EQ(physical.queries.size(), 2u);
  EXPECT_EQ(physical.queries[0].candidate_op,
            physical.queries[1].candidate_op);
  // author.paper prefix + venue extension + author extension = 3, not
  // the 1 + 2 = 3 per-query... the point: q1's venue feature and q2's
  // venue feature are ONE op, so kMaterialize counts 3 (prefix, venue,
  // author) instead of 5.
  EXPECT_EQ(CountKind(physical, PhysOpKind::kMaterialize), 3u);
  // q2 shares q1's venue score op outright (same members, same path,
  // weights live in the combine): 2 distinct kScore ops, not 3.
  EXPECT_EQ(CountKind(physical, PhysOpKind::kScore), 2u);
  // Ownership (who gets charged the materialization): the shared prefix
  // and the venue extension go to the first query that requested them;
  // only q2's private author extension is charged to q2.
  std::size_t owned_by_first = 0, owned_by_second = 0;
  for (const PhysicalOp& op : physical.ops) {
    if (op.kind != PhysOpKind::kMaterialize) continue;
    if (op.owner_query == 0) ++owned_by_first;
    if (op.owner_query == 1) ++owned_by_second;
  }
  EXPECT_EQ(owned_by_first, 2u);
  EXPECT_EQ(owned_by_second, 1u);
}

TEST_F(PlannerFixture, CseOffLowersOneOpPerUse) {
  const QueryPlan q1 = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 3;
  )");
  const QueryPlan q2 = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 3;
  )");
  PlannerOptions off;
  off.enable_cse = false;
  Planner planner(*hin_, off);
  planner.AddQuery(q1);
  planner.AddQuery(q2);
  const PhysicalPlan physical = planner.Take();
  EXPECT_FALSE(physical.cse_enabled);
  // Identical queries, zero sharing: everything is duplicated.
  EXPECT_NE(physical.queries[0].candidate_op,
            physical.queries[1].candidate_op);
  EXPECT_EQ(CountKind(physical, PhysOpKind::kMaterialize), 2u);
  EXPECT_EQ(CountKind(physical, PhysOpKind::kScore), 2u);
  // No prefix splitting either: both materializations carry the full
  // path (no extension chains).
  for (const PhysicalOp& op : physical.ops) {
    if (op.kind == PhysOpKind::kMaterialize) {
      EXPECT_FALSE(op.extends);
      EXPECT_EQ(op.path.length(), 2u);
    }
  }
}

TEST_F(PlannerFixture, IndexAlignsPrefixSplitsToChunkBoundaries) {
  // author.paper.venue.paper and author.paper.venue.paper.author share a
  // depth-3 prefix. Without an index the split lands there (the shorter
  // path IS the prefix node); with a PM index attached, a depth-3 split
  // would break the length-2 chunk decomposition, so the planner lowers
  // it to depth 2.
  const char* query = R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue.paper, author.paper.venue.paper.author
      TOP 3;
  )";
  // The shorter feature IS the shared node: it is materialized as a full
  // path and its consumers are the longer feature's extension, its own
  // score and the top-k visibility probe.
  const std::string plain = Explain(query);
  EXPECT_NE(plain.find("Materialize path author.paper.venue.paper "
                       "[traverse] (shared x3)"),
            std::string::npos);
  EXPECT_NE(plain.find("Materialize extend paper.author"),
            std::string::npos);

  // With the PM index the depth-3 split would break chunk alignment, so
  // the shared prefix drops to depth 2 and both features extend it. The
  // one-hop venue.paper suffix is below the index's chunk size, so it
  // traverses; the two-hop suffix is indexed.
  const auto pm = PmIndex::Build(*hin_).value();
  const std::string indexed = Explain(query, pm.get());
  EXPECT_NE(indexed.find("Materialize path author.paper.venue [pm] "
                         "(shared x2)"),
            std::string::npos);
  EXPECT_NE(indexed.find("Materialize extend venue.paper [traverse]"),
            std::string::npos);
  EXPECT_NE(indexed.find("Materialize extend venue.paper.author [pm]"),
            std::string::npos);
  EXPECT_EQ(indexed.find("Materialize path author.paper.venue.paper"),
            std::string::npos);
}

TEST_F(PlannerFixture, DuplicateConditionAtomsShareOneMaterialization) {
  // Both WHERE atoms traverse author.paper: one kMaterialize feeds the
  // filter twice (and is also NOT confused with the feature path).
  const QueryPlan plan = Prepare(R"(
      FIND OUTLIERS FROM author AS A
           WHERE COUNT(A.paper) > 1 AND COUNT(A.paper) < 100
      JUDGED BY author.paper.venue TOP 3;
  )");
  Planner planner(*hin_, PlannerOptions{});
  planner.AddQuery(plan);
  const PhysicalPlan physical = planner.Take();
  std::size_t filter_op = kNoOp;
  for (std::size_t id = 0; id < physical.ops.size(); ++id) {
    if (physical.ops[id].kind == PhysOpKind::kFilter) filter_op = id;
  }
  ASSERT_NE(filter_op, kNoOp);
  const PhysicalOp& filter = physical.ops[filter_op];
  ASSERT_EQ(filter.inputs.size(), 3u);  // base + one mat per atom
  EXPECT_EQ(filter.inputs[1], filter.inputs[2]);
  EXPECT_GT(physical.consumer_count[filter.inputs[1]], 1u);
}

TEST_F(PlannerFixture, BareSetLoweringHasNoTopKPipeline) {
  const QueryPlan plan = Prepare(R"(
      FIND OUTLIERS FROM author{"Hub"}.paper.author
      JUDGED BY author.paper.venue TOP 3;
  )");
  Planner planner(*hin_, PlannerOptions{});
  planner.AddSet(plan.candidate);
  const PhysicalPlan physical = planner.Take();
  ASSERT_EQ(physical.queries.size(), 1u);
  const PlanQuery& entry = physical.queries[0];
  EXPECT_EQ(entry.candidate_op, entry.reference_op);
  EXPECT_EQ(entry.topk_op, kNoOp);
  EXPECT_EQ(CountKind(physical, PhysOpKind::kScore), 0u);
  EXPECT_EQ(CountKind(physical, PhysOpKind::kTopK), 0u);
}

}  // namespace
}  // namespace netout
