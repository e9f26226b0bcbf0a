#include "graph/io.h"

#include <fstream>
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
  builder.AddEdgeType("writes", author, paper).CheckOk();
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Ava Lovelace", "P1").ok());
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Liam", "P1").ok());
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Ava Lovelace", "P2").ok());
  // A parallel link (multiplicity 2 total).
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Liam", "P2").ok());
  EXPECT_TRUE(builder.AddEdgeByName("writes", "Liam", "P2").ok());
  // An isolated vertex.
  builder.AddVertex(author, "Hermit").CheckOk();
  return builder.Finish().value();
}

void ExpectSameNetwork(const Hin& a, const Hin& b) {
  ASSERT_EQ(a.schema().num_vertex_types(), b.schema().num_vertex_types());
  ASSERT_EQ(a.schema().num_edge_types(), b.schema().num_edge_types());
  EXPECT_EQ(a.TotalVertices(), b.TotalVertices());
  EXPECT_EQ(a.TotalEdges(), b.TotalEdges());
  for (TypeId t = 0; t < a.schema().num_vertex_types(); ++t) {
    EXPECT_EQ(a.schema().VertexTypeName(t), b.schema().VertexTypeName(t));
    ASSERT_EQ(a.NumVertices(t), b.NumVertices(t));
    for (LocalId v = 0; v < a.NumVertices(t); ++v) {
      // Vertex identity is preserved through names (ids may renumber in
      // the text round trip, so match by lookup).
      const std::string& name = a.VertexName(VertexRef{t, v});
      EXPECT_TRUE(b.FindVertex(t, name).ok()) << name;
    }
  }
  for (EdgeTypeId e = 0; e < a.schema().num_edge_types(); ++e) {
    const EdgeTypeInfo& info = a.schema().edge_type(e);
    const Csr& ca = a.Adjacency(EdgeStep{e, Direction::kForward});
    for (LocalId src = 0; src < ca.num_rows(); ++src) {
      for (const CsrEntry& entry : ca.Row(src)) {
        const VertexRef b_src =
            b.FindVertex(info.src, a.VertexName(VertexRef{info.src, src}))
                .value();
        const VertexRef b_dst =
            b.FindVertex(info.dst,
                         a.VertexName(VertexRef{info.dst, entry.neighbor}))
                .value();
        const EdgeStep step{e, Direction::kForward};
        bool found = false;
        for (const CsrEntry& b_entry : b.Neighbors(b_src, step)) {
          if (b_entry.neighbor == b_dst.local) {
            EXPECT_EQ(b_entry.count, entry.count);
            found = true;
          }
        }
        EXPECT_TRUE(found);
      }
    }
  }
}

TEST(GraphIoTest, TextRoundTrip) {
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("text.hin");
  ASSERT_TRUE(SaveHinText(*original, path).ok());
  const HinPtr loaded = LoadHinText(path).value();
  ExpectSameNetwork(*original, *loaded);
}

TEST(GraphIoTest, BinaryRoundTripPreservesIds) {
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("bin.hin");
  ASSERT_TRUE(SaveHinBinary(*original, path).ok());
  const HinPtr loaded = LoadHinBinary(path).value();
  ExpectSameNetwork(*original, *loaded);
  // Binary snapshots preserve local ids exactly.
  for (TypeId t = 0; t < original->schema().num_vertex_types(); ++t) {
    for (LocalId v = 0; v < original->NumVertices(t); ++v) {
      EXPECT_EQ(original->VertexName(VertexRef{t, v}),
                loaded->VertexName(VertexRef{t, v}));
    }
  }
}

TEST(GraphIoTest, BinaryRoundTripPreservesSketches) {
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("sketch.hin");
  ASSERT_TRUE(SaveHinBinary(*original, path).ok());
  const HinPtr loaded = LoadHinBinary(path).value();
  for (EdgeTypeId e = 0; e < original->schema().num_edge_types(); ++e) {
    for (Direction dir : {Direction::kForward, Direction::kReverse}) {
      const EdgeStep step{e, dir};
      EXPECT_EQ(original->StepSketch(step), loaded->StepSketch(step));
    }
  }
}

TEST(GraphIoTest, V1SnapshotsLoadAndRecomputeSketches) {
  // A v1 snapshot is exactly the v2 payload minus the trailing sketch
  // section (4 u64 per edge type and direction), wrapped with the old
  // magic; the loader must accept it and rebuild sketches from the CSR.
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("v1.hin");
  ASSERT_TRUE(SaveHinBinary(*original, path).ok());
  const std::string v2_bytes = ReadFileToString(path).value();
  std::string payload = UnwrapChecked("NOUTHIN2", v2_bytes).value();
  const std::size_t sketch_bytes =
      original->schema().num_edge_types() * 2 * 4 * sizeof(std::uint64_t);
  ASSERT_GT(payload.size(), sketch_bytes);
  payload.resize(payload.size() - sketch_bytes);
  ASSERT_TRUE(
      WriteStringToFile(path, WrapWithChecksum("NOUTHIN1", payload)).ok());

  const HinPtr loaded = LoadHinBinary(path).value();
  ExpectSameNetwork(*original, *loaded);
  for (EdgeTypeId e = 0; e < original->schema().num_edge_types(); ++e) {
    for (Direction dir : {Direction::kForward, Direction::kReverse}) {
      const EdgeStep step{e, dir};
      EXPECT_EQ(original->StepSketch(step), loaded->StepSketch(step));
    }
  }
}

TEST(GraphIoTest, BinaryLoadRejectsSketchCsrMismatch) {
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("badsketch.hin");
  ASSERT_TRUE(SaveHinBinary(*original, path).ok());
  const std::string v2_bytes = ReadFileToString(path).value();
  std::string payload = UnwrapChecked("NOUTHIN2", v2_bytes).value();
  // Corrupt the `entries` field (second u64) of the first sketch, which
  // sits at the start of the trailing sketch section.
  const std::size_t sketch_bytes =
      original->schema().num_edge_types() * 2 * 4 * sizeof(std::uint64_t);
  const std::size_t entries_offset =
      payload.size() - sketch_bytes + sizeof(std::uint64_t);
  payload[entries_offset] = static_cast<char>(
      static_cast<unsigned char>(payload[entries_offset]) ^ 0x7F);
  ASSERT_TRUE(
      WriteStringToFile(path, WrapWithChecksum("NOUTHIN2", payload)).ok());
  auto r = LoadHinBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(GraphIoTest, TextParserRejectsMalformedLines) {
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("bad.hin");
  {
    std::ofstream out(path);
    out << "T\tauthor\nX\tjunk\n";
  }
  auto r = LoadHinText(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(GraphIoTest, TextParserRejectsUndeclaredTypes) {
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("undeclared.hin");
  {
    std::ofstream out(path);
    out << "V\tghost\tAva\n";
  }
  EXPECT_FALSE(LoadHinText(path).ok());
}

TEST(GraphIoTest, TextParserSkipsCommentsAndBlanks) {
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("comments.hin");
  {
    std::ofstream out(path);
    out << "# a comment\n\nT\tauthor\n  \nV\tauthor\tAva\n";
  }
  const HinPtr hin = LoadHinText(path).value();
  EXPECT_EQ(hin->TotalVertices(), 1u);
}

TEST(GraphIoTest, BinaryLoadRejectsCorruption) {
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("corrupt.hin");
  ASSERT_TRUE(SaveHinBinary(*original, path).ok());
  std::string bytes = ReadFileToString(path).value();
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  auto r = LoadHinBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(GraphIoTest, BinaryLoadRejectsWrongMagic) {
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("notasnapshot.hin");
  ASSERT_TRUE(WriteStringToFile(path, "this is not a snapshot at all!").ok());
  auto r = LoadHinBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(GraphIoTest, MissingFilesAreIoErrors) {
  EXPECT_EQ(LoadHinText("/no/such/file").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(LoadHinBinary("/no/such/file").status().code(),
            StatusCode::kIoError);
}

TEST(GraphIoTest, EmptyNetworkRoundTrips) {
  GraphBuilder builder;
  const HinPtr empty = builder.Finish().value();
  const ScopedTempDir tmp("netout_io");
  const std::string path = tmp.File("empty.hin");
  ASSERT_TRUE(SaveHinBinary(*empty, path).ok());
  const HinPtr loaded = LoadHinBinary(path).value();
  EXPECT_EQ(loaded->TotalVertices(), 0u);
}

}  // namespace
}  // namespace netout
