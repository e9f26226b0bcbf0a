#include "graph/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/binary_io.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace netout {
namespace {

// The payload is mmapped and read in place as raw u64/CsrEntry arrays,
// so the format is only valid where the in-memory layout matches the
// little-endian on-disk one. A big-endian port would need a byte-swap
// load path; fail the build loudly instead of corrupting silently.
static_assert(std::endian::native == std::endian::little,
              "segment files are little-endian and read in place");
static_assert(sizeof(CsrEntry) == 8 && alignof(CsrEntry) <= 8,
              "CsrEntry must match the packed on-disk entry layout");

constexpr std::string_view kSegmentMagic = "NOUTSEG1";
constexpr std::string_view kManifestMagic = "NOUTSHD1";
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::size_t kSegmentHeaderBytes = 64;
constexpr std::string_view kManifestName = "MANIFEST.nshd";

// Hard ceilings long before arithmetic can wrap: rows are LocalIds and
// a segment's entry count at 8 bytes apiece must stay far under off_t.
constexpr std::uint64_t kMaxRows = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxSegmentEntries = std::uint64_t{1} << 48;

std::string ErrnoMessage(std::string_view what, std::string_view path) {
  return std::string(what) + " '" + std::string(path) +
         "': " + std::strerror(errno);
}

std::string SegmentFileName(EdgeTypeId edge, Direction dir,
                            std::size_t seq) {
  // Appended piece by piece: GCC 12 at -O3 raises a false -Wrestrict on
  // the equivalent chain of operator+ temporaries.
  std::string name = "e";
  name += std::to_string(edge);
  name += dir == Direction::kForward ? "_f_" : "_r_";
  name += std::to_string(seq);
  name += ".seg";
  return name;
}

std::size_t RelationIndex(const EdgeStep& step) {
  return std::size_t{2} * step.edge_type +
         (step.direction == Direction::kReverse ? 1 : 0);
}

std::uint64_t PayloadBytes(std::uint64_t row_count,
                           std::uint64_t entry_count) {
  return (row_count + 1) * sizeof(std::uint64_t) +
         entry_count * sizeof(CsrEntry);
}

std::string EncodeSegmentHeader(EdgeTypeId edge, Direction dir,
                                std::uint64_t row_begin,
                                std::uint64_t row_count,
                                std::uint64_t entry_count,
                                std::uint64_t payload_bytes,
                                std::uint32_t crc) {
  std::string header;
  header.reserve(kSegmentHeaderBytes);
  header.append(kSegmentMagic);
  AppendU32(&header, kSegmentVersion);
  AppendU32(&header, crc);
  AppendU32(&header, edge);
  AppendU32(&header, dir == Direction::kForward ? 0 : 1);
  AppendU64(&header, row_begin);
  AppendU64(&header, row_count);
  AppendU64(&header, entry_count);
  AppendU64(&header, payload_bytes);
  AppendU64(&header, 0);  // reserved
  NETOUT_CHECK(header.size() == kSegmentHeaderBytes)
      << "segment header layout drifted";
  return header;
}

void AppendSketch(std::string* buf, const AdjacencySketch& sketch) {
  AppendU64(buf, sketch.rows);
  AppendU64(buf, sketch.entries);
  AppendU64(buf, sketch.multiplicity);
  AppendU64(buf, sketch.max_row_entries);
}

Result<AdjacencySketch> ReadSketch(Cursor* cur) {
  AdjacencySketch sketch;
  NETOUT_ASSIGN_OR_RETURN(sketch.rows, cur->ReadU64());
  NETOUT_ASSIGN_OR_RETURN(sketch.entries, cur->ReadU64());
  NETOUT_ASSIGN_OR_RETURN(sketch.multiplicity, cur->ReadU64());
  NETOUT_ASSIGN_OR_RETURN(sketch.max_row_entries, cur->ReadU64());
  return sketch;
}

/// write + fsync + close: the caller fsyncs the directory once after
/// all segments, before the manifest rename publishes them.
Status WriteFileDurable(const std::string& path, std::string_view data) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("cannot open", path));
  Status status = WriteFull(fd, data.data(), data.size());
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IoError(ErrnoMessage("fsync failed", path));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError(ErrnoMessage("close failed", path));
  }
  return status;
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("cannot open directory", dir));
  }
  Status status = Status::OK();
  if (::fsync(fd) != 0) {
    status = Status::IoError(ErrnoMessage("fsync failed", dir));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError(ErrnoMessage("close failed", dir));
  }
  return status;
}

}  // namespace

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

Status BuildShardedHin(const Hin& hin, std::string_view dir_view,
                       const ShardWriterOptions& options) {
  if (options.target_segment_bytes == 0) {
    return Status::InvalidArgument("target_segment_bytes must be nonzero");
  }
  const std::string dir(dir_view);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(ErrnoMessage("cannot create directory", dir));
  }

  const Schema& schema = hin.schema();
  std::string manifest;
  AppendU64(&manifest, schema.num_vertex_types());
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    AppendString(&manifest, schema.VertexTypeName(t));
  }
  AppendU64(&manifest, schema.num_edge_types());
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const EdgeTypeInfo& info = schema.edge_type(e);
    AppendString(&manifest, info.name);
    AppendU32(&manifest, info.src);
    AppendU32(&manifest, info.dst);
  }
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    AppendU64(&manifest, hin.NumVertices(t));
    for (LocalId v = 0; v < hin.NumVertices(t); ++v) {
      AppendString(&manifest, hin.VertexName(VertexRef{t, v}));
    }
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    AppendSketch(&manifest, hin.StepSketch(EdgeStep{e, Direction::kForward}));
    AppendSketch(&manifest, hin.StepSketch(EdgeStep{e, Direction::kReverse}));
  }
  AppendU64(&manifest, options.target_segment_bytes);

  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    for (const Direction dir_kind :
         {Direction::kForward, Direction::kReverse}) {
      const EdgeStep step{e, dir_kind};
      const std::size_t rows = hin.NumVertices(schema.StepSource(step));

      // Physical placement order. Renumbering sorts by descending
      // degree (stable, so ties keep ascending logical id); the
      // logical->physical permutation is persisted so readers translate
      // row lookups — logical ids never change, which is what keeps
      // top-k tie-breaking (candidate-index based) bitwise stable.
      std::vector<LocalId> order(rows);
      std::iota(order.begin(), order.end(), LocalId{0});
      if (options.renumber && rows > 0) {
        std::vector<std::uint64_t> degree(rows);
        for (std::size_t row = 0; row < rows; ++row) {
          degree[row] = hin.StepRow(step, static_cast<LocalId>(row)).size();
        }
        std::stable_sort(order.begin(), order.end(),
                         [&degree](LocalId a, LocalId b) {
                           return degree[a] > degree[b];
                         });
      }
      AppendU64(&manifest, rows);
      AppendU32(&manifest, options.renumber ? 1 : 0);
      if (options.renumber) {
        std::vector<std::uint32_t> perm(rows);
        for (std::size_t phys = 0; phys < rows; ++phys) {
          perm[order[phys]] = static_cast<std::uint32_t>(phys);
        }
        for (const std::uint32_t p : perm) AppendU32(&manifest, p);
      }

      struct SegmentMeta {
        std::uint64_t row_begin;
        std::uint64_t row_count;
        std::uint64_t entry_count;
        std::uint64_t payload_bytes;
        std::uint32_t crc;
      };
      std::vector<SegmentMeta> segments;
      std::size_t phys = 0;
      std::size_t seq = 0;
      while (phys < rows) {
        const std::uint64_t row_begin = phys;
        std::vector<std::uint64_t> offsets(1, 0);
        std::string entry_bytes;
        while (phys < rows) {
          const std::span<const CsrEntry> row =
              hin.StepRow(step, order[phys]);
          for (const CsrEntry& entry : row) {
            AppendU32(&entry_bytes, entry.neighbor);
            AppendU32(&entry_bytes, entry.count);
          }
          offsets.push_back(offsets.back() + row.size());
          ++phys;
          if (offsets.size() * sizeof(std::uint64_t) + entry_bytes.size() >=
              options.target_segment_bytes) {
            break;
          }
        }
        std::string payload;
        payload.reserve(offsets.size() * sizeof(std::uint64_t) +
                        entry_bytes.size());
        for (const std::uint64_t offset : offsets) {
          AppendU64(&payload, offset);
        }
        payload += entry_bytes;
        const std::uint32_t crc = Crc32c(payload);
        const SegmentMeta meta{row_begin, phys - row_begin, offsets.back(),
                               payload.size(), crc};
        std::string file = EncodeSegmentHeader(e, dir_kind, meta.row_begin,
                                               meta.row_count,
                                               meta.entry_count,
                                               meta.payload_bytes, crc);
        file += payload;
        NETOUT_RETURN_IF_ERROR(WriteFileDurable(
            dir + "/" + SegmentFileName(e, dir_kind, seq), file));
        segments.push_back(meta);
        ++seq;
      }
      AppendU64(&manifest, segments.size());
      for (const SegmentMeta& meta : segments) {
        AppendU64(&manifest, meta.row_begin);
        AppendU64(&manifest, meta.row_count);
        AppendU64(&manifest, meta.entry_count);
        AppendU64(&manifest, meta.payload_bytes);
        AppendU32(&manifest, meta.crc);
      }
    }
  }

  // Durability ordering: every segment (and its directory entry) must
  // be on disk before the manifest rename makes them reachable — a
  // crash between here and the rename leaves at worst orphan segments,
  // never a manifest pointing at missing/partial ones.
  NETOUT_RETURN_IF_ERROR(FsyncDir(dir));
  return WriteStringToFileAtomic(dir + "/" + std::string(kManifestName),
                                 WrapWithChecksum(kManifestMagic, manifest));
}

// ---------------------------------------------------------------------
// Loader — every on-disk value is untrusted until proven in range
// ---------------------------------------------------------------------

Result<HinPtr> LoadShardedHin(std::string_view dir_view,
                              const ShardedOptions& options) {
  const std::string dir(dir_view);
  NETOUT_ASSIGN_OR_RETURN(
      std::string file_data,
      ReadFileToString(dir + "/" + std::string(kManifestName)));
  NETOUT_ASSIGN_OR_RETURN(std::string payload,
                          UnwrapChecked(kManifestMagic, file_data));
  Cursor cur(payload);

  auto hin = std::shared_ptr<Hin>(new Hin());
  NETOUT_ASSIGN_OR_RETURN(std::uint64_t num_types, cur.ReadU64());
  for (std::uint64_t t = 0; t < num_types; ++t) {
    NETOUT_ASSIGN_OR_RETURN(std::string name, cur.ReadString());
    NETOUT_RETURN_IF_ERROR(hin->schema_.AddVertexType(name).status());
  }
  NETOUT_ASSIGN_OR_RETURN(std::uint64_t num_edge_types, cur.ReadU64());
  for (std::uint64_t e = 0; e < num_edge_types; ++e) {
    NETOUT_ASSIGN_OR_RETURN(std::string name, cur.ReadString());
    NETOUT_ASSIGN_OR_RETURN(std::uint32_t src, cur.ReadU32());
    NETOUT_ASSIGN_OR_RETURN(std::uint32_t dst, cur.ReadU32());
    if (src >= num_types || dst >= num_types) {
      return Status::Corruption("edge type endpoint out of range");
    }
    NETOUT_RETURN_IF_ERROR(hin->schema_
                               .AddEdgeType(name, static_cast<TypeId>(src),
                                            static_cast<TypeId>(dst))
                               .status());
  }

  hin->names_.resize(num_types);
  hin->name_index_.resize(num_types);
  for (std::uint64_t t = 0; t < num_types; ++t) {
    NETOUT_ASSIGN_OR_RETURN(std::uint64_t count, cur.ReadU64());
    hin->names_[t].reserve(count);
    for (std::uint64_t v = 0; v < count; ++v) {
      NETOUT_ASSIGN_OR_RETURN(std::string name, cur.ReadString());
      const auto local = static_cast<LocalId>(hin->names_[t].size());
      auto [it, inserted] = hin->name_index_[t].emplace(name, local);
      (void)it;
      if (!inserted) {
        return Status::Corruption("duplicate vertex name in shard manifest");
      }
      hin->names_[t].push_back(std::move(name));
    }
  }

  hin->forward_sketch_.reserve(num_edge_types);
  hin->reverse_sketch_.reserve(num_edge_types);
  for (std::uint64_t e = 0; e < num_edge_types; ++e) {
    NETOUT_ASSIGN_OR_RETURN(AdjacencySketch fwd, ReadSketch(&cur));
    NETOUT_ASSIGN_OR_RETURN(AdjacencySketch rev, ReadSketch(&cur));
    const EdgeTypeInfo& info =
        hin->schema_.edge_type(static_cast<EdgeTypeId>(e));
    if (fwd.rows != hin->names_[info.src].size() ||
        rev.rows != hin->names_[info.dst].size()) {
      return Status::Corruption("adjacency sketch rows mismatch");
    }
    hin->forward_sketch_.push_back(fwd);
    hin->reverse_sketch_.push_back(rev);
  }
  NETOUT_ASSIGN_OR_RETURN(std::uint64_t target_segment_bytes, cur.ReadU64());
  (void)target_segment_bytes;  // informational; not needed to read

  std::unique_ptr<SegmentStore> store(new SegmentStore());
  store->dir_ = dir;
  store->budget_bytes_ = options.budget_bytes;
  store->relations_.resize(2 * num_edge_types);

  for (std::uint64_t e = 0; e < num_edge_types; ++e) {
    const auto edge = static_cast<EdgeTypeId>(e);
    for (const Direction dir_kind :
         {Direction::kForward, Direction::kReverse}) {
      const EdgeStep step{edge, dir_kind};
      SegmentStore::Relation& rel =
          store->relations_[RelationIndex(step)];
      const EdgeTypeInfo& info = hin->schema_.edge_type(edge);
      const std::size_t expected_rows =
          dir_kind == Direction::kForward ? hin->names_[info.src].size()
                                          : hin->names_[info.dst].size();
      const std::size_t dst_count = dir_kind == Direction::kForward
                                        ? hin->names_[info.dst].size()
                                        : hin->names_[info.src].size();

      NETOUT_ASSIGN_OR_RETURN(rel.rows, cur.ReadU64());
      if (rel.rows != expected_rows) {
        return Status::Corruption("relation row count mismatch");
      }
      NETOUT_ASSIGN_OR_RETURN(std::uint32_t renumbered, cur.ReadU32());
      if (renumbered > 1) {
        return Status::Corruption("invalid renumbering flag");
      }
      if (renumbered == 1) {
        rel.perm.resize(rel.rows);
        std::vector<char> seen(rel.rows, 0);
        for (std::uint64_t row = 0; row < rel.rows; ++row) {
          NETOUT_ASSIGN_OR_RETURN(rel.perm[row], cur.ReadU32());
          if (rel.perm[row] >= rel.rows || seen[rel.perm[row]] != 0) {
            return Status::Corruption("renumbering map is not a permutation");
          }
          seen[rel.perm[row]] = 1;
        }
      }

      NETOUT_ASSIGN_OR_RETURN(std::uint64_t num_segments, cur.ReadU64());
      // Each segment spans >= 1 row, so the count is bounded by rows.
      if (num_segments > rel.rows || rel.rows > kMaxRows) {
        return Status::Corruption("segment count exceeds relation rows");
      }
      std::uint64_t next_row = 0;
      std::uint64_t relation_entries = 0;
      for (std::uint64_t seq = 0; seq < num_segments; ++seq) {
        auto seg = std::make_unique<SegmentStore::Segment>();
        NETOUT_ASSIGN_OR_RETURN(seg->row_begin, cur.ReadU64());
        NETOUT_ASSIGN_OR_RETURN(seg->row_count, cur.ReadU64());
        NETOUT_ASSIGN_OR_RETURN(seg->entry_count, cur.ReadU64());
        NETOUT_ASSIGN_OR_RETURN(seg->payload_bytes, cur.ReadU64());
        NETOUT_ASSIGN_OR_RETURN(seg->crc, cur.ReadU32());
        if (seg->row_begin != next_row) {
          return Status::Corruption(
              "segment row ranges overlap or leave a gap");
        }
        if (seg->row_count == 0 || seg->row_count > rel.rows - next_row) {
          return Status::Corruption("segment row count out of range");
        }
        if (seg->entry_count > kMaxSegmentEntries) {
          return Status::Corruption("segment entry count out of range");
        }
        if (seg->payload_bytes !=
            PayloadBytes(seg->row_count, seg->entry_count)) {
          return Status::Corruption(
              "segment payload size inconsistent with row/entry counts");
        }
        next_row += seg->row_count;
        relation_entries += seg->entry_count;

        const std::string path =
            dir + "/" + SegmentFileName(edge, dir_kind, seq);
        const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0) {
          return Status::Corruption(
              ErrnoMessage("manifest references missing segment", path));
        }
        struct stat st{};
        if (::fstat(fd, &st) != 0) {
          const Status status =
              Status::IoError(ErrnoMessage("fstat failed", path));
          ::close(fd);
          return status;
        }
        const std::uint64_t expected_size =
            kSegmentHeaderBytes + seg->payload_bytes;
        if (st.st_size < 0 ||
            static_cast<std::uint64_t>(st.st_size) != expected_size) {
          ::close(fd);
          return Status::Corruption("segment file '" + path +
                                    "' truncated or oversized");
        }
        void* map = ::mmap(nullptr, expected_size, PROT_READ, MAP_PRIVATE,
                           fd, 0);
        ::close(fd);
        if (map == MAP_FAILED) {
          return Status::IoError(ErrnoMessage("mmap failed", path));
        }
        seg->map_base = static_cast<const unsigned char*>(map);
        seg->map_bytes = expected_size;
        // The store owns the mapping from here on: any later validation
        // failure unwinds through ~SegmentStore and munmaps it.
        rel.segments.push_back(std::move(seg));
        SegmentStore::Segment& owned = *rel.segments.back();

        // Cursor has no raw-bytes read; compare the magic in place.
        if (std::string_view(reinterpret_cast<const char*>(owned.map_base),
                             kSegmentMagic.size()) != kSegmentMagic) {
          return Status::Corruption("segment file '" + path +
                                    "' has wrong magic");
        }
        Cursor fields(std::string_view(
            reinterpret_cast<const char*>(owned.map_base) +
                kSegmentMagic.size(),
            kSegmentHeaderBytes - kSegmentMagic.size()));
        NETOUT_ASSIGN_OR_RETURN(std::uint32_t version, fields.ReadU32());
        NETOUT_ASSIGN_OR_RETURN(std::uint32_t file_crc, fields.ReadU32());
        NETOUT_ASSIGN_OR_RETURN(std::uint32_t file_edge, fields.ReadU32());
        NETOUT_ASSIGN_OR_RETURN(std::uint32_t file_dir, fields.ReadU32());
        NETOUT_ASSIGN_OR_RETURN(std::uint64_t file_row_begin,
                                fields.ReadU64());
        NETOUT_ASSIGN_OR_RETURN(std::uint64_t file_row_count,
                                fields.ReadU64());
        NETOUT_ASSIGN_OR_RETURN(std::uint64_t file_entry_count,
                                fields.ReadU64());
        NETOUT_ASSIGN_OR_RETURN(std::uint64_t file_payload_bytes,
                                fields.ReadU64());
        if (version != kSegmentVersion) {
          return Status::Corruption("segment file '" + path +
                                    "' has unsupported version");
        }
        if (file_crc != owned.crc || file_edge != edge ||
            file_dir != (dir_kind == Direction::kForward ? 0u : 1u) ||
            file_row_begin != owned.row_begin ||
            file_row_count != owned.row_count ||
            file_entry_count != owned.entry_count ||
            file_payload_bytes != owned.payload_bytes) {
          return Status::Corruption("segment file '" + path +
                                    "' header disagrees with manifest");
        }

        owned.offsets = reinterpret_cast<const std::uint64_t*>(
            owned.map_base + kSegmentHeaderBytes);
        owned.entries = reinterpret_cast<const CsrEntry*>(
            owned.map_base + kSegmentHeaderBytes +
            (owned.row_count + 1) * sizeof(std::uint64_t));
        if (owned.offsets[0] != 0) {
          return Status::Corruption("segment file '" + path +
                                    "' offsets do not start at zero");
        }
        for (std::uint64_t row = 0; row < owned.row_count; ++row) {
          if (owned.offsets[row] > owned.offsets[row + 1]) {
            return Status::Corruption("segment file '" + path +
                                      "' offsets not monotone");
          }
        }
        if (owned.offsets[owned.row_count] != owned.entry_count) {
          return Status::Corruption(
              "segment file '" + path +
              "' offsets point past the entry array");
        }
        if (options.verify_checksums) {
          const std::uint32_t actual = Crc32c(
              owned.map_base + kSegmentHeaderBytes, owned.payload_bytes);
          if (actual != owned.crc) {
            return Status::Corruption("segment file '" + path +
                                      "' checksum mismatch");
          }
        }
        // Neighbor ids index the destination type's name table (and the
        // next hop's rows); an out-of-range one would abort VertexName.
        for (std::uint64_t i = 0; i < owned.entry_count; ++i) {
          if (owned.entries[i].neighbor >= dst_count) {
            return Status::Corruption("segment file '" + path +
                                      "' neighbor id out of range");
          }
        }
      }
      if (next_row != rel.rows) {
        return Status::Corruption("segments do not cover all rows");
      }
      const AdjacencySketch& sketch =
          dir_kind == Direction::kForward ? hin->forward_sketch_[e]
                                          : hin->reverse_sketch_[e];
      if (relation_entries != sketch.entries) {
        return Status::Corruption(
            "segment entry totals disagree with the adjacency sketch");
      }
      rel.seg_starts.reserve(rel.segments.size());
      for (const auto& seg : rel.segments) {
        rel.seg_starts.push_back(seg->row_begin);
      }
    }
  }
  if (!cur.AtEnd()) {
    return Status::Corruption("trailing bytes after shard manifest");
  }

  for (const SegmentStore::Relation& rel : store->relations_) {
    for (const auto& seg : rel.segments) {
      store->all_segments_.push_back(seg.get());
    }
  }
  // Under a budget, start cold: validation touched every page, which
  // would otherwise leave the whole graph resident but unaccounted.
  if (store->budget_bytes_ > 0) {
    for (const SegmentStore::Segment* seg : store->all_segments_) {
      ::madvise(const_cast<void*>(static_cast<const void*>(seg->map_base)),
                seg->map_bytes, MADV_DONTNEED);
    }
  }

  hin->shards_ = std::shared_ptr<const SegmentStore>(store.release());
  return HinPtr(hin);
}

// ---------------------------------------------------------------------
// SegmentStore
// ---------------------------------------------------------------------

SegmentStore::~SegmentStore() {
  for (Relation& rel : relations_) {
    for (auto& seg : rel.segments) {
      if (seg->map_base != nullptr) {
        ::munmap(const_cast<void*>(static_cast<const void*>(seg->map_base)),
                 seg->map_bytes);
      }
    }
  }
}

std::span<const CsrEntry> SegmentStore::Row(const EdgeStep& step,
                                            LocalId row) const {
  const std::size_t idx = RelationIndex(step);
  NETOUT_CHECK(idx < relations_.size()) << "edge type out of range";
  const Relation& rel = relations_[idx];
  if (row >= rel.rows) return {};
  const std::uint64_t phys = rel.perm.empty() ? row : rel.perm[row];
  const auto it =
      std::upper_bound(rel.seg_starts.begin(), rel.seg_starts.end(), phys);
  const Segment& seg =
      *rel.segments[static_cast<std::size_t>(it - rel.seg_starts.begin()) -
                    1];
  Touch(seg);
  const std::uint64_t local = phys - seg.row_begin;
  const std::uint64_t begin = seg.offsets[local];
  const std::uint64_t end = seg.offsets[local + 1];
  return std::span<const CsrEntry>(seg.entries + begin,
                                   static_cast<std::size_t>(end - begin));
}

void SegmentStore::Touch(const Segment& seg) const {
  seg.referenced.store(true, std::memory_order_relaxed);
  if (seg.resident.load(std::memory_order_acquire)) return;
  // Exactly one thread wins the cold->resident flip and does the
  // accounting, so resident_bytes_ never double-counts a segment.
  if (seg.resident.exchange(true, std::memory_order_acq_rel)) return;
  faults_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t now =
      resident_bytes_.fetch_add(seg.payload_bytes,
                                std::memory_order_relaxed) +
      seg.payload_bytes;
  if (budget_bytes_ != 0 && now > budget_bytes_) EvictToBudget();
}

void SegmentStore::EvictToBudget() const {
  MutexLock lock(evict_mu_);
  const std::size_t n = all_segments_.size();
  if (n == 0) return;
  // Clock (second chance): a referenced bit earns one extra sweep, so a
  // segment in active use is never the victim of its own fault. The
  // 2n+1 bound guarantees termination when everything stays referenced
  // faster than the hand moves. Eviction only drops pages
  // (MADV_DONTNEED on a read-only file mapping); spans handed out
  // earlier stay valid and simply refault from disk.
  std::size_t scanned = 0;
  while (resident_bytes_.load(std::memory_order_relaxed) > budget_bytes_ &&
         scanned < 2 * n + 1) {
    const Segment& seg = *all_segments_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % n;
    ++scanned;
    if (!seg.resident.load(std::memory_order_relaxed)) continue;
    if (seg.referenced.exchange(false, std::memory_order_relaxed)) continue;
    if (!seg.resident.exchange(false, std::memory_order_acq_rel)) continue;
    resident_bytes_.fetch_sub(seg.payload_bytes, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    ::madvise(const_cast<void*>(static_cast<const void*>(seg.map_base)),
              seg.map_bytes, MADV_DONTNEED);
  }
}

ShardedStorageStats SegmentStore::Stats() const {
  ShardedStorageStats stats;
  stats.budget_bytes = budget_bytes_;
  stats.segments = all_segments_.size();
  for (const Segment* seg : all_segments_) {
    stats.mapped_bytes += seg->payload_bytes;
    if (seg->resident.load(std::memory_order_relaxed)) {
      stats.resident_segments += 1;
    }
  }
  stats.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  stats.faults = faults_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t SegmentStore::MemoryBytes() const {
  std::size_t bytes = resident_bytes_.load(std::memory_order_relaxed);
  for (const Relation& rel : relations_) {
    bytes += rel.perm.capacity() * sizeof(std::uint32_t);
    bytes += rel.segments.capacity() * sizeof(std::unique_ptr<Segment>);
    bytes += rel.segments.size() * sizeof(Segment);
    bytes += rel.seg_starts.capacity() * sizeof(std::uint64_t);
  }
  bytes += all_segments_.capacity() * sizeof(const Segment*);
  return bytes;
}

}  // namespace netout
