// Robustness sweeps: the query frontend and snapshot loaders must never
// crash on hostile input — every outcome is a clean Status (or a valid
// parse). Seeded pseudo-fuzzing keeps runs deterministic.

#include <string>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "datagen/biblio_gen.h"
#include "graph/io.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/token.h"
#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

// ---- query frontend -----------------------------------------------------

std::string RandomQueryText(Rng* rng) {
  // A soup biased toward query-language tokens so deep parse paths get
  // exercised, plus raw bytes for the lexer.
  static const char* kFragments[] = {
      "FIND",       "OUTLIERS",  "FROM",     "IN",       "COMPARED",
      "TO",         "JUDGED",    "BY",       "TOP",      "AS",
      "WHERE",      "COUNT",     "UNION",    "INTERSECT", "EXCEPT",
      "AND",        "OR",        "NOT",      "USING",    "MEASURE",
      "COMBINE",    "author",    "paper",    "venue",    "term",
      "author.paper.venue",      "venue{\"KDD\"}",       "{",
      "}",          "(",         ")",        ".",        ",",
      ":",          ";",         "10",       "3.5",      "\"name\"",
      ">",          ">=",        "<",        "=",        "!=",
      "[",          "]",         "--cmt\n",  "\"unterminated",
  };
  std::string out;
  const std::size_t parts = 1 + rng->NextBounded(24);
  for (std::size_t i = 0; i < parts; ++i) {
    out += kFragments[rng->NextBounded(std::size(kFragments))];
    out += " ";
  }
  return out;
}

TEST(FrontendRobustness, ParserNeverCrashesOnTokenSoup) {
  Rng rng(2024);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string query = RandomQueryText(&rng);
    auto result = ParseQuery(query);
    if (result.ok()) ++parsed_ok;
    // Either outcome is fine; crashes/UB are the failure mode.
  }
  // The soup occasionally forms valid queries; mostly it must not.
  EXPECT_LT(parsed_ok, 3000);
}

TEST(FrontendRobustness, LexerHandlesArbitraryBytes) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    const std::size_t len = rng.NextBounded(64);
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    (void)Tokenize(bytes);  // must not crash
  }
}

TEST(FrontendRobustness, EngineRejectsSoupCleanly) {
  BiblioConfig config;
  config.num_areas = 2;
  config.authors_per_area = 15;
  config.papers_per_area = 30;
  config.venues_per_area = 2;
  config.terms_per_area = 8;
  config.shared_terms = 4;
  config.planted_outliers_per_area = 1;
  config.coauthor_outliers_per_area = 1;
  config.low_visibility_per_area = 1;
  const BiblioDataset dataset = GenerateBiblio(config).value();
  Engine engine(dataset.hin);
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    auto result = engine.Execute(RandomQueryText(&rng));
    if (!result.ok()) {
      // Clean, classified errors only.
      const StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kNotFound ||
                  code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kUnimplemented ||
                  code == StatusCode::kFailedPrecondition)
          << result.status();
    }
  }
}

// ---- snapshot loader ------------------------------------------------------

TEST(SnapshotRobustness, TruncationsNeverCrashTheLoader) {
  BiblioConfig config;
  config.num_areas = 1;
  config.authors_per_area = 10;
  config.papers_per_area = 20;
  config.venues_per_area = 2;
  config.terms_per_area = 5;
  config.shared_terms = 2;
  config.planted_outliers_per_area = 0;
  config.coauthor_outliers_per_area = 0;
  config.low_visibility_per_area = 0;
  const BiblioDataset dataset = GenerateBiblio(config).value();
  const ScopedTempDir tmp("netout_robustness");
  const std::string path = tmp.File("snapshot.hin");
  ASSERT_TRUE(SaveHinBinary(*dataset.hin, path).ok());
  const std::string bytes = ReadFileToString(path).value();

  // Every truncation point must be rejected as corruption (never UB).
  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 97)) {
    ASSERT_TRUE(
        WriteStringToFile(path, std::string_view(bytes).substr(0, cut))
            .ok());
    auto result = LoadHinBinary(path);
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(SnapshotRobustness, RandomBitFlipsAreRejectedOrEquivalent) {
  BiblioConfig config;
  config.num_areas = 1;
  config.authors_per_area = 8;
  config.papers_per_area = 15;
  config.venues_per_area = 2;
  config.terms_per_area = 4;
  config.shared_terms = 2;
  config.planted_outliers_per_area = 0;
  config.coauthor_outliers_per_area = 0;
  config.low_visibility_per_area = 0;
  const BiblioDataset dataset = GenerateBiblio(config).value();
  const ScopedTempDir tmp("netout_robustness");
  const std::string path = tmp.File("snapshot.hin");
  ASSERT_TRUE(SaveHinBinary(*dataset.hin, path).ok());
  const std::string original = ReadFileToString(path).value();

  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = original;
    mutated[rng.NextBounded(mutated.size())] ^=
        static_cast<char>(1 << rng.NextBounded(8));
    ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
    auto result = LoadHinBinary(path);
    // The checksum catches payload flips; header flips are magic/size
    // mismatches. Either way: a clean corruption error, never a crash.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
}

}  // namespace
}  // namespace netout
