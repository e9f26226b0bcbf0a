// Full-stack integration tests on the synthetic DBLP-like network:
// query-language -> engine -> measures, checked against the generator's
// planted ground truth, plus snapshot round-trips of the whole pipeline.

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "datagen/biblio_gen.h"
#include "graph/io.h"
#include "query/engine.h"
#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

BiblioConfig TestConfig() {
  BiblioConfig config;
  config.seed = 7;
  config.num_areas = 4;
  config.authors_per_area = 80;
  config.papers_per_area = 300;
  config.venues_per_area = 5;
  config.terms_per_area = 50;
  config.shared_terms = 30;
  config.planted_outliers_per_area = 3;
  config.low_visibility_per_area = 3;
  // Keep candidate sets within one community: a cross-area coauthor is a
  // legitimate venue outlier and would compete with the planted ground
  // truth this suite measures precision against.
  config.cross_area_coauthor_prob = 0.0;
  return config;
}

class EndToEndFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new BiblioDataset(GenerateBiblio(TestConfig()).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static bool IsPlanted(const std::string& name) {
    return name.rfind("outlier_", 0) == 0;
  }
  static bool IsLowVisibility(const std::string& name) {
    return name.rfind("lowvis_", 0) == 0;
  }

  static BiblioDataset* dataset_;
};

BiblioDataset* EndToEndFixture::dataset_ = nullptr;

// The paper's first case-study query (Table 5, block 1): outliers among a
// star's coauthors judged by venues. The planted cross-community authors
// must dominate the top of the NetOut ranking.
TEST_F(EndToEndFixture, NetOutSurfacesPlantedOutliers) {
  Engine engine(dataset_->hin);
  int planted_in_top5_total = 0;
  for (std::size_t area = 0; area < 4; ++area) {
    const std::string query =
        "FIND OUTLIERS FROM author{\"" + dataset_->star_names[area] +
        "\"}.paper.author JUDGED BY author.paper.venue TOP 5;";
    const QueryResult result = engine.Execute(query).value();
    ASSERT_EQ(result.outliers.size(), 5u);
    for (const OutlierEntry& entry : result.outliers) {
      if (IsPlanted(entry.name)) ++planted_in_top5_total;
    }
  }
  // 3 planted outliers per area, 4 areas, top-5 each: expect most found.
  EXPECT_GE(planted_in_top5_total, 8) << "NetOut should recover the "
                                         "planted cross-community authors";
}

// Table 3's shape: PathSim and CosSim favor low-visibility candidates;
// NetOut does not.
TEST_F(EndToEndFixture, PathSimAndCosSimPreferLowVisibility) {
  Engine engine(dataset_->hin);
  auto count_kinds = [&](const char* measure, int* lowvis, int* planted) {
    *lowvis = 0;
    *planted = 0;
    for (std::size_t area = 0; area < 4; ++area) {
      const std::string query =
          "FIND OUTLIERS FROM author{\"" + dataset_->star_names[area] +
          "\"}.paper.author JUDGED BY author.paper.venue USING MEASURE " +
          measure + " TOP 5;";
      const QueryResult result = engine.Execute(query).value();
      for (const OutlierEntry& entry : result.outliers) {
        if (IsLowVisibility(entry.name)) ++(*lowvis);
        if (IsPlanted(entry.name)) ++(*planted);
      }
    }
  };
  int netout_lowvis, netout_planted;
  int pathsim_lowvis, pathsim_planted;
  int cossim_lowvis, cossim_planted;
  count_kinds("netout", &netout_lowvis, &netout_planted);
  count_kinds("pathsim", &pathsim_lowvis, &pathsim_planted);
  count_kinds("cossim", &cossim_lowvis, &cossim_planted);

  // The published bias: PathSim/CosSim rank tiny-record authors among
  // their top outliers, NetOut does not — while still recovering most of
  // the semantically planted outliers. (All three measures may surface
  // planted outliers; the *low-visibility* treatment is what differs.)
  EXPECT_GT(pathsim_lowvis, netout_lowvis);
  EXPECT_GE(cossim_lowvis, netout_lowvis);
  EXPECT_EQ(netout_lowvis, 0);
  EXPECT_GE(netout_planted, 8);
  (void)pathsim_planted;
  (void)cossim_planted;
}

// The paper's Table 5 second query: same candidates, judged by coauthors
// instead of venues — rankings should differ (outlier semantics are
// query-relative).
TEST_F(EndToEndFixture, DifferentFeaturePathsGiveDifferentOutliers) {
  Engine engine(dataset_->hin);
  const std::string by_venue =
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.venue TOP 10;";
  const std::string by_coauthor =
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.author TOP 10;";
  const QueryResult venue_result = engine.Execute(by_venue).value();
  const QueryResult coauthor_result = engine.Execute(by_coauthor).value();
  std::set<std::string> venue_names, coauthor_names;
  for (const auto& e : venue_result.outliers) venue_names.insert(e.name);
  for (const auto& e : coauthor_result.outliers) {
    coauthor_names.insert(e.name);
  }
  EXPECT_NE(venue_names, coauthor_names);
}

// COMPARED TO against a different community: members of area 1 are
// outliers relative to area 0's venue profile.
TEST_F(EndToEndFixture, CrossCommunityComparedTo) {
  Engine engine(dataset_->hin);
  const std::string query =
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[1] +
      "\"}.paper.author COMPARED TO author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.venue TOP 5;";
  const QueryResult result = engine.Execute(query).value();
  ASSERT_EQ(result.outliers.size(), 5u);
  // Scores must be far below the self-referential baseline: area-1
  // authors barely connect to area-0's venues.
  const std::string self_query =
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.venue TOP 5;";
  const QueryResult self_result = engine.Execute(self_query).value();
  EXPECT_LT(result.outliers[0].score, self_result.outliers[4].score + 1e-9);
}

// WHERE filtering composes with outlier ranking end to end.
TEST_F(EndToEndFixture, WhereClauseExcludesLowVisibilityAuthors) {
  Engine engine(dataset_->hin);
  const std::string query =
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author AS A WHERE COUNT(A.paper) >= 3 "
      "JUDGED BY author.paper.venue TOP 10;";
  const QueryResult result = engine.Execute(query).value();
  for (const OutlierEntry& entry : result.outliers) {
    EXPECT_FALSE(IsLowVisibility(entry.name))
        << entry.name << " has <= 2 papers and must be filtered";
  }
}

// Snapshot round trip: binary save/load preserves query results exactly.
TEST_F(EndToEndFixture, SnapshotRoundTripPreservesResults) {
  const ScopedTempDir tmp("netout_e2e");
  const std::string path = tmp.File("snapshot.hin");
  ASSERT_TRUE(SaveHinBinary(*dataset_->hin, path).ok());
  const HinPtr reloaded = LoadHinBinary(path).value();

  const std::string query =
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[2] +
      "\"}.paper.author JUDGED BY author.paper.venue TOP 10;";
  Engine original(dataset_->hin);
  Engine restored(reloaded);
  const QueryResult a = original.Execute(query).value();
  const QueryResult b = restored.Execute(query).value();
  ASSERT_EQ(a.outliers.size(), b.outliers.size());
  for (std::size_t i = 0; i < a.outliers.size(); ++i) {
    EXPECT_EQ(a.outliers[i].name, b.outliers[i].name);
    EXPECT_DOUBLE_EQ(a.outliers[i].score, b.outliers[i].score);
  }
}

// Rank combination across two weighted paths works end to end.
TEST_F(EndToEndFixture, MultiPathRankCombination) {
  Engine engine(dataset_->hin);
  const std::string query =
      "FIND OUTLIERS FROM author{\"" + dataset_->star_names[0] +
      "\"}.paper.author JUDGED BY author.paper.venue : 2.0, "
      "author.paper.term COMBINE BY rank TOP 5;";
  const QueryResult result = engine.Execute(query).value();
  ASSERT_EQ(result.outliers.size(), 5u);
  for (std::size_t i = 1; i < result.outliers.size(); ++i) {
    EXPECT_LE(result.outliers[i - 1].score, result.outliers[i].score);
  }
}

}  // namespace
}  // namespace netout
