#include "graph/import.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "query/engine.h"
#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c").value(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvLine("").value(), (std::vector<std::string>{""}));
  EXPECT_EQ(ParseCsvLine("a,,c").value(),
            (std::vector<std::string>{"a", "", "c"}));
}

TEST(ParseCsvLineTest, QuotedFields) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c").value(),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(ParseCsvLine("\"say \"\"hi\"\"\",x").value(),
            (std::vector<std::string>{"say \"hi\"", "x"}));
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
}

class ImportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    papers_path_ = WriteTemp("papers.csv",
                             "id,authors,venue,terms\n"
                             "p1,Ava;Liam,KDD,graphs;mining\n"
                             "p2,Ava,ICDE,\"graphs\"\n"
                             "p3,\"Zoe\",KDD,outliers\n"
                             "\n"  // blank line is skipped
                             "p4,Zoe;Liam,KDD,mining;outliers\n");
  }

  /// Writes `content` to `name` in this test's own directory.
  std::string WriteTemp(const char* name, std::string_view content) const {
    const std::string path = tmp_.File(name);
    std::ofstream out(path, std::ios::trunc);
    out << content;
    return path;
  }

  CsvTableSpec PapersSpec() const {
    CsvTableSpec spec;
    spec.path = papers_path_;
    spec.vertex_type = "paper";
    spec.key_column = "id";
    spec.links = {
        {"authors", "author", "written_by", ';'},
        {"venue", "venue", "published_in", '\0'},
        {"terms", "term", "has_term", ';'},
    };
    return spec;
  }

  const ScopedTempDir tmp_{"netout_import"};
  std::string papers_path_;
};

TEST_F(ImportFixture, BuildsTheExpectedNetwork) {
  const HinPtr hin =
      ImportCsvTables(std::vector<CsvTableSpec>{PapersSpec()}).value();
  EXPECT_EQ(hin->NumVertices(hin->schema().FindVertexType("paper").value()),
            4u);
  EXPECT_EQ(
      hin->NumVertices(hin->schema().FindVertexType("author").value()),
      3u);  // Ava, Liam, Zoe
  EXPECT_EQ(hin->NumVertices(hin->schema().FindVertexType("venue").value()),
            2u);
  EXPECT_EQ(hin->NumVertices(hin->schema().FindVertexType("term").value()),
            3u);
  // 6 author links + 4 venue links + 6 term links.
  EXPECT_EQ(hin->TotalEdges(), 16u);
}

TEST_F(ImportFixture, ImportedNetworkIsQueryable) {
  const HinPtr hin =
      ImportCsvTables(std::vector<CsvTableSpec>{PapersSpec()}).value();
  // The full query stack runs over the imported relational data.
  Engine engine(hin);
  const QueryResult result = engine
                                 .Execute(R"(
      FIND OUTLIERS FROM venue{"KDD"}.paper.author
      JUDGED BY author.paper.term
      TOP 2;
  )")
                                 .value();
  ASSERT_EQ(result.outliers.size(), 2u);
  // Candidate set = authors with a KDD paper: Ava, Liam, Zoe.
  EXPECT_EQ(result.stats.candidate_count, 3u);
}

TEST_F(ImportFixture, MissingColumnFails) {
  CsvTableSpec spec = PapersSpec();
  spec.key_column = "nonexistent";
  auto result = ImportCsvTables(std::vector<CsvTableSpec>{spec});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ImportFixture, RaggedRowFails) {
  const std::string path = WriteTemp("ragged.csv",
                                     "id,venue\n"
                                     "p1,KDD,extra\n");
  CsvTableSpec spec;
  spec.path = path;
  spec.vertex_type = "paper";
  spec.key_column = "id";
  auto result = ImportCsvTables(std::vector<CsvTableSpec>{spec});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST_F(ImportFixture, EmptyKeyFails) {
  const std::string path = WriteTemp("emptykey.csv",
                                     "id,venue\n"
                                     " ,KDD\n");
  CsvTableSpec spec;
  spec.path = path;
  spec.vertex_type = "paper";
  spec.key_column = "id";
  EXPECT_FALSE(ImportCsvTables(std::vector<CsvTableSpec>{spec}).ok());
}

TEST_F(ImportFixture, ConflictingEdgeDeclarationsRejected) {
  // A second table reusing "written_by" with different endpoints.
  const std::string path = WriteTemp("conflict.csv",
                                     "name,boss\n"
                                     "alice,bob\n");
  CsvTableSpec other;
  other.path = path;
  other.vertex_type = "employee";
  other.key_column = "name";
  other.links = {{"boss", "employee", "written_by", '\0'}};
  auto result = ImportCsvTables(
      std::vector<CsvTableSpec>{PapersSpec(), other});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ImportFixture, MultipleTablesShareVertexTypes) {
  const std::string affiliations = WriteTemp("affil.csv",
                                             "who,org\n"
                                             "Ava,UIUC\n"
                                             "Zoe,UCSB\n");
  CsvTableSpec affil;
  affil.path = affiliations;
  affil.vertex_type = "author";  // merges with the papers table's authors
  affil.key_column = "who";
  affil.links = {{"org", "org", "affiliated_with", '\0'}};
  const HinPtr hin = ImportCsvTables(std::vector<CsvTableSpec>{
                                         PapersSpec(), affil})
                         .value();
  // Ava/Zoe merged (same type+name); org vertices added.
  EXPECT_EQ(
      hin->NumVertices(hin->schema().FindVertexType("author").value()), 3u);
  EXPECT_EQ(hin->NumVertices(hin->schema().FindVertexType("org").value()),
            2u);
  EXPECT_EQ(hin->TotalEdges(), 18u);
}

TEST_F(ImportFixture, MissingFileIsIoError) {
  CsvTableSpec spec;
  spec.path = "/no/such/file.csv";
  spec.vertex_type = "x";
  spec.key_column = "id";
  EXPECT_EQ(ImportCsvTables(std::vector<CsvTableSpec>{spec})
                .status()
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace netout
