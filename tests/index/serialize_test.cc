#include "index/serialize.h"

#include <string>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "graph/builder.h"
#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

HinPtr MakeSample() {
  GraphBuilder builder;
  const TypeId author = builder.AddVertexType("author").value();
  const TypeId paper = builder.AddVertexType("paper").value();
  const TypeId venue = builder.AddVertexType("venue").value();
  builder.AddEdgeType("writes", author, paper).CheckOk();
  builder.AddEdgeType("published_in", paper, venue).CheckOk();
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Ava", "p1").ok());
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Liam", "p1").ok());
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Zoe", "p2").ok());
  EXPECT_TRUE(builder.AddEdgeByName("published_in", "p1", "KDD").ok());
  EXPECT_TRUE(builder.AddEdgeByName("published_in", "p2", "ICDE").ok());
  return builder.Finish().value();
}

HinPtr MakeDifferent() {
  GraphBuilder builder;
  const TypeId author = builder.AddVertexType("author").value();
  const TypeId paper = builder.AddVertexType("paper").value();
  const TypeId venue = builder.AddVertexType("venue").value();
  builder.AddEdgeType("writes", author, paper).CheckOk();
  builder.AddEdgeType("published_in", paper, venue).CheckOk();
  EXPECT_TRUE(builder.AddEdgeByName("writes", "OnlyOne", "p1").ok());
  EXPECT_TRUE(builder.AddEdgeByName("published_in", "p1", "X").ok());
  return builder.Finish().value();
}

TEST(PmSerializeTest, RoundTrip) {
  const HinPtr hin = MakeSample();
  const auto index = PmIndex::Build(*hin).value();
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("pm.idx");
  ASSERT_TRUE(SavePmIndex(*index, path).ok());
  const auto loaded = LoadPmIndex(*hin, path).value();
  EXPECT_EQ(loaded->num_relations(), index->num_relations());
  for (const TwoStepKey& key : index->Keys()) {
    const TypeId source = hin->schema().StepSource(key.first);
    for (LocalId row = 0; row < hin->NumVertices(source); ++row) {
      const auto a = index->Lookup(key, row);
      const auto b = loaded->Lookup(key, row);
      ASSERT_EQ(a.has_value(), b.has_value());
      ASSERT_EQ(a->nnz(), b->nnz());
      for (std::size_t i = 0; i < a->nnz(); ++i) {
        EXPECT_EQ(a->indices[i], b->indices[i]);
        EXPECT_DOUBLE_EQ(a->values[i], b->values[i]);
      }
    }
  }
}

TEST(PmSerializeTest, RejectsMismatchedGraph) {
  const HinPtr hin = MakeSample();
  const auto index = PmIndex::Build(*hin).value();
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("pm_mismatch.idx");
  ASSERT_TRUE(SavePmIndex(*index, path).ok());
  const HinPtr other = MakeDifferent();
  auto r = LoadPmIndex(*other, path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(PmSerializeTest, RejectsBitFlip) {
  const HinPtr hin = MakeSample();
  const auto index = PmIndex::Build(*hin).value();
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("pm_corrupt.idx");
  ASSERT_TRUE(SavePmIndex(*index, path).ok());
  std::string bytes = ReadFileToString(path).value();
  bytes[bytes.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  EXPECT_EQ(LoadPmIndex(*hin, path).status().code(),
            StatusCode::kCorruption);
}

// Regression: a PM file whose row columns are not strictly increasing
// used to load fine (the checksum only protects against accidental
// corruption, not a buggy or adversarial writer) and then silently fed
// unsorted views into the sorted-merge kernels. FromRaw now validates
// per-row sortedness, so the load fails with kCorruption.
TEST(PmSerializeTest, RejectsUnsortedRowColumns) {
  const HinPtr hin = MakeSample();
  std::string payload;
  AppendU64(&payload, 1);  // one two-step key
  AppendU32(&payload, 0);  // first step: writes
  AppendU32(&payload, 0);  //   forward
  AppendU32(&payload, 1);  // second step: published_in
  AppendU32(&payload, 0);  //   forward
  AppendU32(&payload, 0);  // row type: author
  AppendU32(&payload, 2);  // col type: venue
  AppendU64(&payload, 3);  // num rows (matches the sample's authors)
  AppendU64(&payload, 2);  // num entries
  AppendU64(&payload, 0);  // offsets: row 0 holds both entries
  AppendU64(&payload, 2);
  AppendU64(&payload, 2);
  AppendU64(&payload, 2);
  AppendU32(&payload, 1);  // cols: 1 then 0 — NOT sorted
  AppendU32(&payload, 0);
  AppendDouble(&payload, 1.0);
  AppendDouble(&payload, 1.0);
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("pm_unsorted.idx");
  ASSERT_TRUE(
      WriteStringToFile(path, WrapWithChecksum("NOUTPMI1", payload)).ok());
  auto r = LoadPmIndex(*hin, path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

// The SPM loader must likewise reject a vector with unsorted indices.
TEST(SpmSerializeTest, RejectsUnsortedVectorIndices) {
  const HinPtr hin = MakeSample();
  std::string payload;
  AppendU64(&payload, 1);  // one two-step key
  AppendU32(&payload, 0);  // first step: writes, forward
  AppendU32(&payload, 0);
  AppendU32(&payload, 1);  // second step: published_in, forward
  AppendU32(&payload, 0);
  AppendU64(&payload, 1);  // one row entry
  AppendU32(&payload, 0);  // row 0
  AppendU64(&payload, 2);  // nnz
  AppendU32(&payload, 1);  // indices: 1 then 0 — NOT sorted
  AppendU32(&payload, 0);
  AppendDouble(&payload, 1.0);
  AppendDouble(&payload, 1.0);
  AppendU64(&payload, 1);  // num indexed vertices
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("spm_unsorted.idx");
  ASSERT_TRUE(
      WriteStringToFile(path, WrapWithChecksum("NOUTSPM1", payload)).ok());
  auto r = LoadSpmIndex(*hin, path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(SpmSerializeTest, RoundTrip) {
  const HinPtr hin = MakeSample();
  const VertexRef ava = hin->FindVertex("author", "Ava").value();
  const VertexRef zoe = hin->FindVertex("author", "Zoe").value();
  const auto index = SpmIndex::BuildForVertices(*hin, {ava, zoe}).value();
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("spm.idx");
  ASSERT_TRUE(SaveSpmIndex(*index, path).ok());
  const auto loaded = LoadSpmIndex(*hin, path).value();
  EXPECT_EQ(loaded->num_indexed_vertices(), 2u);
  for (const auto& [key, rows] : index->rows()) {
    for (const auto& [row, vec] : rows) {
      const auto got = loaded->Lookup(key, row);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->nnz(), vec.nnz());
      for (std::size_t i = 0; i < vec.nnz(); ++i) {
        EXPECT_EQ(got->indices[i], vec.indices()[i]);
        EXPECT_DOUBLE_EQ(got->values[i], vec.values()[i]);
      }
    }
  }
}

TEST(SpmSerializeTest, RejectsWrongMagic) {
  const HinPtr hin = MakeSample();
  const VertexRef ava = hin->FindVertex("author", "Ava").value();
  const auto pm_style = SpmIndex::BuildForVertices(*hin, {ava}).value();
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("spm_magic.idx");
  ASSERT_TRUE(SaveSpmIndex(*pm_style, path).ok());
  // Loading an SPM file as a PM index must fail on magic.
  EXPECT_EQ(LoadPmIndex(*hin, path).status().code(),
            StatusCode::kCorruption);
}

TEST(SpmSerializeTest, EmptyIndexRoundTrips) {
  const HinPtr hin = MakeSample();
  const auto index = SpmIndex::BuildForVertices(*hin, {}).value();
  const ScopedTempDir tmp("netout_idx");
  const std::string path = tmp.File("spm_empty.idx");
  ASSERT_TRUE(SaveSpmIndex(*index, path).ok());
  const auto loaded = LoadSpmIndex(*hin, path).value();
  EXPECT_EQ(loaded->num_indexed_vertices(), 0u);
}

}  // namespace
}  // namespace netout
