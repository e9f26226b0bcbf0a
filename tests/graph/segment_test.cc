// Out-of-core shard storage (graph/segment.h): build/load round trips,
// the purely-physical renumbering contract, budget-driven eviction
// accounting, durability fixtures, and the hostile-file sweep — every
// on-disk size, offset, id and range is attacker-controlled, and a
// corrupt directory must come back as kCorruption, never a crash.

#include "graph/segment.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "datagen/biblio_gen.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/io.h"
#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

namespace fs = std::filesystem;

/// A small graph with skewed degrees, parallel edges, an isolated
/// vertex, and two edge types so forward/reverse relations differ.
HinPtr MakeSample() {
  GraphBuilder builder;
  const TypeId author = builder.AddVertexType("author").value();
  const TypeId paper = builder.AddVertexType("paper").value();
  const TypeId venue = builder.AddVertexType("venue").value();
  builder.AddEdgeType("writes", author, paper).CheckOk();
  builder.AddEdgeType("published_in", paper, venue).CheckOk();
  for (int a = 0; a < 6; ++a) {
    const std::string who = "author_" + std::to_string(a);
    // author_0 writes every paper (the hub); the rest write a few.
    for (int p = 0; p < (a == 0 ? 10 : 2 + a); ++p) {
      EXPECT_TRUE(builder
                      .AddEdgeByName("writes", who,
                                     "paper_" + std::to_string((a * 3 + p) %
                                                               10))
                      .ok());
    }
  }
  // A parallel edge (multiplicity 2).
  EXPECT_TRUE(builder.AddEdgeByName("writes", "author_1", "paper_0").ok());
  for (int p = 0; p < 10; ++p) {
    EXPECT_TRUE(builder
                    .AddEdgeByName("published_in",
                                   "paper_" + std::to_string(p),
                                   "venue_" + std::to_string(p % 2))
                    .ok());
  }
  builder.AddVertex(author, "hermit").CheckOk();
  return builder.Finish().value();
}

/// Every row of every relation, plus names and sketches, bitwise equal.
void ExpectBitwiseEqual(const Hin& want, const Hin& got) {
  const Schema& schema = want.schema();
  ASSERT_EQ(schema.num_vertex_types(), got.schema().num_vertex_types());
  ASSERT_EQ(schema.num_edge_types(), got.schema().num_edge_types());
  EXPECT_EQ(want.TotalVertices(), got.TotalVertices());
  EXPECT_EQ(want.TotalEdges(), got.TotalEdges());
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    ASSERT_EQ(want.NumVertices(t), got.NumVertices(t));
    for (LocalId v = 0; v < want.NumVertices(t); ++v) {
      EXPECT_EQ(want.VertexName(VertexRef{t, v}),
                got.VertexName(VertexRef{t, v}));
    }
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    for (const Direction dir : {Direction::kForward, Direction::kReverse}) {
      const EdgeStep step{e, dir};
      EXPECT_EQ(want.StepSketch(step), got.StepSketch(step));
      const TypeId source = schema.StepSource(step);
      for (LocalId row = 0; row < want.NumVertices(source); ++row) {
        const auto want_row = want.StepRow(step, row);
        const auto got_row = got.StepRow(step, row);
        ASSERT_EQ(want_row.size(), got_row.size())
            << "edge " << e << " dir " << static_cast<int>(dir) << " row "
            << row;
        for (std::size_t i = 0; i < want_row.size(); ++i) {
          ASSERT_EQ(want_row[i], got_row[i]);
        }
      }
    }
  }
}

// -------------------------------------------------------------------
// Round trips
// -------------------------------------------------------------------

TEST(SegmentTest, RoundTripIsBitwiseIdentical) {
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_seg");
  for (const bool renumber : {false, true}) {
    const std::string dir = tmp.File(renumber ? "rt_renumber" : "rt_plain");
    ShardWriterOptions options;
    options.target_segment_bytes = 256;  // force many segments
    options.renumber = renumber;
    ASSERT_TRUE(BuildShardedHin(*original, dir, options).ok());
    const HinPtr loaded = LoadShardedHin(dir).value();
    EXPECT_TRUE(loaded->is_sharded());
    EXPECT_FALSE(original->is_sharded());
    ExpectBitwiseEqual(*original, *loaded);
  }
}

TEST(SegmentTest, RenumberingIsPurelyPhysical) {
  // The same directory read twice must agree with a no-renumber build:
  // logical ids, names and row contents are storage-order independent.
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_seg");
  const std::string plain = tmp.File("phys_plain");
  const std::string packed = tmp.File("phys_packed");
  ShardWriterOptions options;
  options.target_segment_bytes = 256;
  options.renumber = false;
  ASSERT_TRUE(BuildShardedHin(*original, plain, options).ok());
  options.renumber = true;
  ASSERT_TRUE(BuildShardedHin(*original, packed, options).ok());
  const HinPtr a = LoadShardedHin(plain).value();
  const HinPtr b = LoadShardedHin(packed).value();
  ExpectBitwiseEqual(*a, *b);
}

TEST(SegmentTest, BuildFoldsOverlaySnapshots) {
  // Sharding an epoch-N overlay must persist the overlay-patched rows,
  // not the stale root ones.
  const HinPtr root = MakeSample();
  MutableHin graph(root);
  ASSERT_TRUE(graph
                  .AddEdge("writes", "hermit", "paper_new", /*count=*/3,
                           /*create_vertices=*/true)
                  .ok());
  ASSERT_TRUE(graph.DeleteEdge("writes", "author_0", "paper_0").ok());
  ASSERT_TRUE(graph.Commit().ok());
  const HinPtr snapshot = graph.Snapshot().hin;

  const ScopedTempDir tmp("netout_seg");
  const std::string dir = tmp.File("overlay");
  ASSERT_TRUE(BuildShardedHin(*snapshot, dir, {}).ok());
  const HinPtr loaded = LoadShardedHin(dir).value();
  ExpectBitwiseEqual(*snapshot, *loaded);
}

TEST(SegmentTest, ShardedSnapshotSavesBackToBinary) {
  // SaveHinBinary over a sharded graph must fold rows through StepRow
  // (there are no whole-CSR arrays to block-copy) and round-trip.
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_seg");
  const std::string dir = tmp.File("saveback");
  ASSERT_TRUE(BuildShardedHin(*original, dir, {}).ok());
  const HinPtr sharded = LoadShardedHin(dir).value();
  const std::string snap = dir + "/flat.hin";
  ASSERT_TRUE(SaveHinBinary(*sharded, snap).ok());
  const HinPtr reloaded = LoadHinBinary(snap).value();
  EXPECT_FALSE(reloaded->is_sharded());
  ExpectBitwiseEqual(*original, *reloaded);
}

TEST(SegmentTest, ReShardingAShardedGraphWorks) {
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_seg");
  const std::string first = tmp.File("reshard_a");
  const std::string second = tmp.File("reshard_b");
  ShardWriterOptions options;
  options.target_segment_bytes = 256;
  ASSERT_TRUE(BuildShardedHin(*original, first, options).ok());
  const HinPtr sharded = LoadShardedHin(first).value();
  options.target_segment_bytes = 4096;
  options.renumber = false;
  ASSERT_TRUE(BuildShardedHin(*sharded, second, options).ok());
  const HinPtr resharded = LoadShardedHin(second).value();
  ExpectBitwiseEqual(*original, *resharded);
}

TEST(SegmentTest, MutableHinCommitsOnAShardedRoot) {
  // The mutation layer folds base rows through StepRow, so a sharded
  // root must accept commits exactly like an in-memory one.
  const HinPtr original = MakeSample();
  const ScopedTempDir tmp("netout_seg");
  const std::string dir = tmp.File("mutroot");
  ASSERT_TRUE(BuildShardedHin(*original, dir, {}).ok());
  const HinPtr sharded = LoadShardedHin(dir).value();

  MutableHin in_memory(original);
  MutableHin out_of_core(sharded);
  for (MutableHin* graph : {&in_memory, &out_of_core}) {
    ASSERT_TRUE(graph
                    ->AddEdge("writes", "author_2", "paper_extra",
                              /*count=*/1, /*create_vertices=*/true)
                    .ok());
    ASSERT_TRUE(graph->DeleteEdge("writes", "author_1", "paper_0").ok());
    ASSERT_TRUE(graph->Commit().ok());
  }
  ExpectBitwiseEqual(*in_memory.Snapshot().hin,
                     *out_of_core.Snapshot().hin);
}

// -------------------------------------------------------------------
// Residency budget
// -------------------------------------------------------------------

TEST(SegmentTest, BudgetDrivesEvictionAndCounters) {
  BiblioConfig config;
  config.seed = 7;
  config.num_areas = 2;
  config.authors_per_area = 30;
  config.papers_per_area = 60;
  const BiblioDataset dataset = GenerateBiblio(config).value();
  const ScopedTempDir tmp("netout_seg");
  const std::string dir = tmp.File("budget");
  ShardWriterOptions writer;
  writer.target_segment_bytes = 2048;
  ASSERT_TRUE(BuildShardedHin(*dataset.hin, dir, writer).ok());

  ShardedOptions unbounded;
  const HinPtr baseline = LoadShardedHin(dir, unbounded).value();
  const ShardedStorageStats mapped = baseline->shard_store()->Stats();
  ASSERT_GT(mapped.segments, 4u);
  ASSERT_GT(mapped.mapped_bytes, 0u);

  ShardedOptions tight;
  tight.budget_bytes = mapped.mapped_bytes / 4;
  const HinPtr budgeted = LoadShardedHin(dir, tight).value();

  // A full sweep over every relation row: identical answers, plus
  // fault/eviction churn under the quarter-size budget.
  ExpectBitwiseEqual(*baseline, *budgeted);

  const ShardedStorageStats stats = budgeted->shard_store()->Stats();
  EXPECT_EQ(stats.budget_bytes, tight.budget_bytes);
  EXPECT_EQ(stats.mapped_bytes, mapped.mapped_bytes);
  EXPECT_EQ(stats.segments, mapped.segments);
  EXPECT_GT(stats.faults, stats.segments)
      << "a quarter-size budget must force refaults";
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, stats.mapped_bytes);
  EXPECT_LE(stats.resident_segments, stats.segments);

  // Unbudgeted loads never evict; faults happen once per segment at most.
  const ShardedStorageStats base_stats = baseline->shard_store()->Stats();
  EXPECT_EQ(base_stats.evictions, 0u);
  EXPECT_LE(base_stats.faults, base_stats.segments);
}

// -------------------------------------------------------------------
// Hostile files — kCorruption, never a crash
// -------------------------------------------------------------------

/// A built directory plus handles to rewrite its pieces.
class HostileShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = tmp_.File("hostile");
    hin_ = MakeSample();
    ShardWriterOptions options;
    options.target_segment_bytes = 256;
    ASSERT_TRUE(BuildShardedHin(*hin_, dir_, options).ok());
    ASSERT_TRUE(LoadShardedHin(dir_).ok()) << "pristine dir must load";
  }

  std::string SegPath(const char* name) const {
    return dir_ + "/" + name;
  }

  std::string ReadFile(const std::string& path) const {
    return ReadFileToString(path).value();
  }

  void WriteFile(const std::string& path, const std::string& data) const {
    ASSERT_TRUE(WriteStringToFile(path, data).ok());
  }

  /// Expects the load (with checksums on or off) to fail kCorruption.
  void ExpectCorrupt(const char* what, bool verify_checksums = true) {
    ShardedOptions options;
    options.verify_checksums = verify_checksums;
    const Result<HinPtr> loaded = LoadShardedHin(dir_, options);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << what << ": " << loaded.status().ToString();
  }

  /// Rewrites the manifest with `payload` re-wrapped in a valid
  /// container, so the inner validation layer (not the checksum) is
  /// what gets exercised.
  void RewriteManifest(const std::string& payload) const {
    WriteFile(dir_ + "/MANIFEST.nshd",
              WrapWithChecksum("NOUTSHD1", payload));
  }

  std::string ManifestPayload() const {
    return UnwrapChecked("NOUTSHD1", ReadFile(dir_ + "/MANIFEST.nshd"))
        .value();
  }

  const ScopedTempDir tmp_{"netout_seg"};
  std::string dir_;
  HinPtr hin_;
};

TEST_F(HostileShardTest, TruncatedSegment) {
  const std::string path = SegPath("e0_f_0.seg");
  const std::string data = ReadFile(path);
  WriteFile(path, data.substr(0, data.size() - 5));
  ExpectCorrupt("truncated segment");
}

TEST_F(HostileShardTest, TruncatedBelowHeader) {
  const std::string path = SegPath("e0_f_0.seg");
  WriteFile(path, ReadFile(path).substr(0, 17));
  ExpectCorrupt("segment shorter than its header");
}

TEST_F(HostileShardTest, OversizedSegment) {
  const std::string path = SegPath("e0_f_0.seg");
  WriteFile(path, ReadFile(path) + std::string(16, '\0'));
  ExpectCorrupt("oversized segment");
}

TEST_F(HostileShardTest, PayloadBitFlipFailsChecksum) {
  // Flip a count byte of the first entry: offsets stay structurally
  // valid and the neighbor id stays in range, so only the CRC can (and
  // must) catch it.
  const std::string path = SegPath("e0_f_0.seg");
  std::string data = ReadFile(path);
  std::uint64_t row_count = 0;
  std::memcpy(&row_count, data.data() + 32, sizeof(row_count));
  const std::size_t count_byte =
      64 + (static_cast<std::size_t>(row_count) + 1) * 8 + 4;
  data[count_byte] = static_cast<char>(data[count_byte] ^ 0x01);
  WriteFile(path, data);
  ExpectCorrupt("payload bit flip");
  // With verification disabled the flip sails through — which is the
  // documented trade (the knob exists for exactly this reason).
  ShardedOptions lax;
  lax.verify_checksums = false;
  EXPECT_TRUE(LoadShardedHin(dir_, lax).ok());
}

TEST_F(HostileShardTest, BadMagic) {
  const std::string path = SegPath("e0_f_0.seg");
  std::string data = ReadFile(path);
  data[0] = 'X';
  WriteFile(path, data);
  ExpectCorrupt("bad magic");
}

TEST_F(HostileShardTest, UnsupportedVersion) {
  const std::string path = SegPath("e0_f_0.seg");
  std::string data = ReadFile(path);
  data[8] = 2;  // u32 version at offset 8
  WriteFile(path, data);
  ExpectCorrupt("unsupported version");
}

TEST_F(HostileShardTest, HeaderDisagreesWithManifest) {
  const std::string path = SegPath("e0_f_0.seg");
  std::string data = ReadFile(path);
  data[24] = static_cast<char>(data[24] ^ 1);  // u64 row_begin at 24
  WriteFile(path, data);
  ExpectCorrupt("header/manifest row_begin disagreement");
}

TEST_F(HostileShardTest, OffsetsPastEntryArray) {
  // Bump the final offset word with checksum verification disabled:
  // the structural validation alone must still catch it before any
  // entry dereference.
  const std::string path = SegPath("e0_f_0.seg");
  std::string data = ReadFile(path);
  // offsets[] start at 64; find the last offset word of this segment
  // from its header row_count at offset 32.
  std::uint64_t row_count = 0;
  std::memcpy(&row_count, data.data() + 32, sizeof(row_count));
  const std::size_t last = 64 + static_cast<std::size_t>(row_count) * 8;
  data[last] = static_cast<char>(data[last] + 1);
  WriteFile(path, data);
  ExpectCorrupt("offsets past the entry array", /*verify_checksums=*/false);
}

TEST_F(HostileShardTest, NonMonotoneOffsets) {
  const std::string path = SegPath("e0_f_0.seg");
  std::string data = ReadFile(path);
  std::uint64_t row_count = 0;
  std::memcpy(&row_count, data.data() + 32, sizeof(row_count));
  ASSERT_GE(row_count, 2u) << "need two rows to invert an offset pair";
  // Set offsets[1] to a huge value; offsets[2] is now smaller.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(data.data() + 64 + 8, &huge, sizeof(huge));
  WriteFile(path, data);
  ExpectCorrupt("non-monotone offsets", /*verify_checksums=*/false);
}

TEST_F(HostileShardTest, NeighborIdOutOfRange) {
  const std::string path = SegPath("e0_f_0.seg");
  std::string data = ReadFile(path);
  std::uint64_t row_count = 0;
  std::memcpy(&row_count, data.data() + 32, sizeof(row_count));
  // First entry's neighbor field, right after the offsets array.
  const std::size_t entry0 =
      64 + (static_cast<std::size_t>(row_count) + 1) * 8;
  const std::uint32_t bogus = 0x7FFFFFFF;
  std::memcpy(data.data() + entry0, &bogus, sizeof(bogus));
  WriteFile(path, data);
  ExpectCorrupt("neighbor id out of range", /*verify_checksums=*/false);
}

TEST_F(HostileShardTest, MissingSegmentIsCorruptionNotCrash) {
  // The durability fixture: a manifest that references a segment the
  // directory does not hold (the state fsync-before-rename forbids at
  // build time, but an operator's partial copy can still produce).
  ASSERT_TRUE(fs::remove(SegPath("e0_f_0.seg")));
  ExpectCorrupt("manifest references missing segment");
}

TEST_F(HostileShardTest, ManifestBitFlipFailsContainerChecksum) {
  const std::string path = dir_ + "/MANIFEST.nshd";
  std::string data = ReadFile(path);
  data[data.size() / 2] =
      static_cast<char>(data[data.size() / 2] ^ 0x10);
  WriteFile(path, data);
  ExpectCorrupt("manifest bit flip");
}

TEST_F(HostileShardTest, MissingManifest) {
  ASSERT_TRUE(fs::remove(dir_ + "/MANIFEST.nshd"));
  const Result<HinPtr> loaded = LoadShardedHin(dir_);
  EXPECT_FALSE(loaded.ok());  // kIoError: nothing to validate yet
}

TEST_F(HostileShardTest, TrailingManifestBytes) {
  RewriteManifest(ManifestPayload() + "junk");
  ExpectCorrupt("trailing manifest bytes");
}

TEST_F(HostileShardTest, TruncatedManifestPayload) {
  const std::string payload = ManifestPayload();
  RewriteManifest(payload.substr(0, payload.size() - 9));
  ExpectCorrupt("truncated manifest payload");
}

TEST_F(HostileShardTest, PermutationWithDuplicateEntries) {
  // The relation tables sit at the tail of the manifest; rewrite the
  // payload with the first renumbering map made non-bijective. The
  // layout scan below mirrors the writer exactly (schema, names,
  // sketches, target, then per-relation tables).
  std::string payload = ManifestPayload();
  Cursor cur(payload);
  const std::uint64_t num_types = cur.ReadU64().value();
  for (std::uint64_t t = 0; t < num_types; ++t) {
    (void)cur.ReadString().value();
  }
  const std::uint64_t num_edges = cur.ReadU64().value();
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    (void)cur.ReadString().value();
    (void)cur.ReadU32().value();
    (void)cur.ReadU32().value();
  }
  for (std::uint64_t t = 0; t < num_types; ++t) {
    const std::uint64_t count = cur.ReadU64().value();
    for (std::uint64_t v = 0; v < count; ++v) {
      (void)cur.ReadString().value();
    }
  }
  for (std::uint64_t e = 0; e < 2 * num_edges; ++e) {
    for (int i = 0; i < 4; ++i) (void)cur.ReadU64().value();
  }
  (void)cur.ReadU64().value();  // target_segment_bytes
  // First relation: u64 rows, u32 renumbered, then the perm words.
  const std::uint64_t rows = cur.ReadU64().value();
  ASSERT_GE(rows, 2u);
  const std::uint32_t renumbered = cur.ReadU32().value();
  ASSERT_EQ(renumbered, 1u) << "sample build renumbers by default";
  const std::size_t perm_pos = payload.size() - cur.remaining();
  // perm[1] := perm[0] — two logical rows mapping to one physical slot.
  payload.replace(perm_pos + 4, 4, payload.substr(perm_pos, 4));
  RewriteManifest(payload);
  ExpectCorrupt("duplicate permutation entries");
}

TEST_F(HostileShardTest, OverlappingSegmentRowRanges) {
  // Flip renumbering off in the build so the relation table layout is
  // fixed, then corrupt the first segment descriptor's row_begin.
  fs::remove_all(dir_);
  ShardWriterOptions options;
  options.target_segment_bytes = 256;
  options.renumber = false;
  ASSERT_TRUE(BuildShardedHin(*hin_, dir_, options).ok());

  std::string payload = ManifestPayload();
  Cursor cur(payload);
  const std::uint64_t num_types = cur.ReadU64().value();
  for (std::uint64_t t = 0; t < num_types; ++t) {
    (void)cur.ReadString().value();
  }
  const std::uint64_t num_edges = cur.ReadU64().value();
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    (void)cur.ReadString().value();
    (void)cur.ReadU32().value();
    (void)cur.ReadU32().value();
  }
  for (std::uint64_t t = 0; t < num_types; ++t) {
    const std::uint64_t count = cur.ReadU64().value();
    for (std::uint64_t v = 0; v < count; ++v) {
      (void)cur.ReadString().value();
    }
  }
  for (std::uint64_t e = 0; e < 2 * num_edges; ++e) {
    for (int i = 0; i < 4; ++i) (void)cur.ReadU64().value();
  }
  (void)cur.ReadU64().value();  // target_segment_bytes
  (void)cur.ReadU64().value();  // relation rows
  ASSERT_EQ(cur.ReadU32().value(), 0u) << "built with --no-renumber";
  const std::uint64_t num_segments = cur.ReadU64().value();
  ASSERT_GE(num_segments, 2u);
  // Second descriptor's row_begin (each descriptor is 4x u64 + u32):
  // repeat the first segment's range -> overlap.
  const std::size_t desc_pos = payload.size() - cur.remaining();
  payload.replace(desc_pos + 36, 8, payload.substr(desc_pos, 8));
  RewriteManifest(payload);
  ExpectCorrupt("overlapping segment row ranges");
}

}  // namespace
}  // namespace netout
