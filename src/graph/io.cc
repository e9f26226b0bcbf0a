#include "graph/io.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/binary_io.h"
#include "common/string_util.h"
#include "graph/builder.h"

namespace netout {
namespace {

// Version 2: schema + names + forward CSRs + the per-direction adjacency
// sketches (degree-sum statistics the planner's cardinality estimator
// reads). Version 1 files (no sketches) are not read: their magic
// fails the check like any other foreign file.
constexpr std::string_view kHinMagicV2 = "NOUTHIN2";

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

}  // namespace

// ---------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------

Result<HinPtr> LoadHinText(std::string_view path) {
  NETOUT_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  GraphBuilder builder;
  std::istringstream stream(data);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string> fields = StrSplit(trimmed, '\t');
    auto fail = [&](std::string_view why) {
      return Status::ParseError(std::string(path) + ":" +
                                std::to_string(line_no) + ": " +
                                std::string(why));
    };
    const std::string& tag = fields[0];
    if (tag == "T") {
      if (fields.size() != 2) return fail("T expects 1 field");
      NETOUT_RETURN_IF_ERROR(builder.AddVertexType(fields[1]).status());
    } else if (tag == "E") {
      if (fields.size() != 4) return fail("E expects 3 fields");
      auto src = builder.schema().FindVertexType(fields[2]);
      if (!src.ok()) return fail(src.status().message());
      auto dst = builder.schema().FindVertexType(fields[3]);
      if (!dst.ok()) return fail(dst.status().message());
      NETOUT_RETURN_IF_ERROR(
          builder.AddEdgeType(fields[1], src.value(), dst.value()).status());
    } else if (tag == "V") {
      if (fields.size() != 3) return fail("V expects 2 fields");
      auto type = builder.schema().FindVertexType(fields[1]);
      if (!type.ok()) return fail(type.status().message());
      NETOUT_RETURN_IF_ERROR(
          builder.AddVertex(type.value(), fields[2]).status());
    } else if (tag == "L") {
      if (fields.size() != 4) return fail("L expects 3 fields");
      Status s = builder.AddEdgeByName(fields[1], fields[2], fields[3]);
      if (!s.ok()) return fail(s.message());
    } else {
      return fail("unknown record tag '" + tag + "'");
    }
  }
  return builder.Finish();
}

Status SaveHinText(const Hin& hin, std::string_view path) {
  std::string out;
  out += "# netout HIN text format\n";
  const Schema& schema = hin.schema();
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    out += "T\t" + schema.VertexTypeName(t) + "\n";
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const EdgeTypeInfo& info = schema.edge_type(e);
    out += "E\t" + info.name + "\t" + schema.VertexTypeName(info.src) +
           "\t" + schema.VertexTypeName(info.dst) + "\n";
  }
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    for (LocalId v = 0; v < hin.NumVertices(t); ++v) {
      out += "V\t" + schema.VertexTypeName(t) + "\t" +
             hin.VertexName(VertexRef{t, v}) + "\n";
    }
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const EdgeTypeInfo& info = schema.edge_type(e);
    const EdgeStep step{e, Direction::kForward};
    const std::size_t rows = hin.NumVertices(info.src);
    for (LocalId src = 0; src < rows; ++src) {
      for (const CsrEntry& entry : hin.StepRow(step, src)) {
        const std::string& src_name = hin.VertexName(VertexRef{info.src, src});
        const std::string& dst_name =
            hin.VertexName(VertexRef{info.dst, entry.neighbor});
        // Parallel links are written once per multiplicity unit so the
        // round trip preserves path-instance counts.
        for (std::uint32_t i = 0; i < entry.count; ++i) {
          out += "L\t" + info.name + "\t" + src_name + "\t" + dst_name + "\n";
        }
      }
    }
  }
  // Atomic (temp + rename): a signal or crash mid-save must never leave
  // a torn graph file under the final name.
  return WriteStringToFileAtomic(path, out);
}

// ---------------------------------------------------------------------
// Binary snapshot
// ---------------------------------------------------------------------

Status SaveHinBinary(const Hin& hin, std::string_view path) {
  const Schema& schema = hin.schema();
  std::string payload;

  AppendU64(&payload, schema.num_vertex_types());
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    AppendString(&payload, schema.VertexTypeName(t));
  }
  AppendU64(&payload, schema.num_edge_types());
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const EdgeTypeInfo& info = schema.edge_type(e);
    AppendString(&payload, info.name);
    AppendU32(&payload, info.src);
    AppendU32(&payload, info.dst);
  }
  for (TypeId t = 0; t < schema.num_vertex_types(); ++t) {
    AppendU64(&payload, hin.NumVertices(t));
    for (LocalId v = 0; v < hin.NumVertices(t); ++v) {
      AppendString(&payload, hin.VertexName(VertexRef{t, v}));
    }
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const EdgeStep step{e, Direction::kForward};
    if (!hin.has_overlay() && !hin.is_sharded()) {
      // In-memory root graphs stream the CSR arrays directly,
      // copy-free; overlay and sharded snapshots fold below.
      const Csr& csr = hin.Adjacency(step);
      AppendU64(&payload, csr.num_rows());
      AppendU64(&payload, csr.num_entries());
      for (std::uint64_t offset : csr.offsets()) AppendU64(&payload, offset);
      for (const CsrEntry& entry : csr.entries()) {
        AppendU32(&payload, entry.neighbor);
        AppendU32(&payload, entry.count);
      }
      continue;
    }
    // Overlay/sharded snapshots: fold rows into contiguous arrays. The
    // result is byte-identical to saving the flattened rebuild.
    const EdgeTypeInfo& info = schema.edge_type(e);
    const std::size_t rows = hin.NumVertices(info.src);
    std::vector<std::uint64_t> offsets(1, 0);
    std::vector<CsrEntry> flat;
    offsets.reserve(rows + 1);
    for (LocalId src = 0; src < rows; ++src) {
      const std::span<const CsrEntry> row = hin.StepRow(step, src);
      flat.insert(flat.end(), row.begin(), row.end());
      offsets.push_back(flat.size());
    }
    AppendU64(&payload, rows);
    AppendU64(&payload, flat.size());
    for (std::uint64_t offset : offsets) AppendU64(&payload, offset);
    for (const CsrEntry& entry : flat) {
      AppendU32(&payload, entry.neighbor);
      AppendU32(&payload, entry.count);
    }
  }
  for (EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    AppendSketch(&payload, hin.StepSketch(EdgeStep{e, Direction::kForward}));
    AppendSketch(&payload, hin.StepSketch(EdgeStep{e, Direction::kReverse}));
  }

  // Atomic (temp + rename): the checksum detects a torn snapshot after
  // the fact, but a reader racing a plain in-place rewrite would still
  // observe one; rename makes the swap indivisible.
  return WriteStringToFileAtomic(path,
                                 WrapWithChecksum(kHinMagicV2, payload));
}

Result<HinPtr> LoadHinBinary(std::string_view path) {
  NETOUT_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  NETOUT_ASSIGN_OR_RETURN(std::string payload,
                          UnwrapChecked(kHinMagicV2, data));

  auto hin = std::shared_ptr<Hin>(new Hin());
  Cursor cur(payload);

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
      LocalId local = static_cast<LocalId>(hin->names_[t].size());
      auto [it, inserted] = hin->name_index_[t].emplace(name, local);
      (void)it;
      if (!inserted) {
        return Status::Corruption("duplicate vertex name in snapshot");
      }
      hin->names_[t].push_back(std::move(name));
    }
  }

  for (std::uint64_t e = 0; e < num_edge_types; ++e) {
    const EdgeTypeInfo& info =
        hin->schema_.edge_type(static_cast<EdgeTypeId>(e));
    NETOUT_ASSIGN_OR_RETURN(std::uint64_t num_rows, cur.ReadU64());
    NETOUT_ASSIGN_OR_RETURN(std::uint64_t num_entries, cur.ReadU64());
    if (num_rows != hin->names_[info.src].size()) {
      return Status::Corruption("CSR row count mismatch");
    }
    std::vector<std::uint64_t> offsets(num_rows + 1);
    for (auto& offset : offsets) {
      NETOUT_ASSIGN_OR_RETURN(offset, cur.ReadU64());
    }
    std::vector<CsrEntry> entries(num_entries);
    std::vector<std::tuple<LocalId, LocalId, std::uint32_t>> reversed;
    reversed.reserve(num_entries);
    for (auto& entry : entries) {
      NETOUT_ASSIGN_OR_RETURN(entry.neighbor, cur.ReadU32());
      NETOUT_ASSIGN_OR_RETURN(entry.count, cur.ReadU32());
      if (entry.neighbor >= hin->names_[info.dst].size()) {
        return Status::Corruption("CSR neighbor out of range");
      }
    }
    for (std::uint64_t row = 0; row + 1 < offsets.size(); ++row) {
      if (offsets[row] > offsets[row + 1] ||
          offsets[row + 1] > num_entries) {
        return Status::Corruption("CSR offsets not monotone");
      }
      for (std::uint64_t i = offsets[row]; i < offsets[row + 1]; ++i) {
        reversed.emplace_back(entries[i].neighbor,
                              static_cast<LocalId>(row), entries[i].count);
      }
    }
    Csr forward = Csr::FromRaw(std::move(offsets), std::move(entries));
    if (forward.num_rows() != num_rows) {
      return Status::Corruption("CSR reconstruction failed");
    }
    hin->forward_.push_back(std::move(forward));
    hin->reverse_.push_back(
        Csr::FromEdges(hin->names_[info.dst].size(), std::move(reversed)));
  }

  hin->forward_sketch_.reserve(num_edge_types);
  hin->reverse_sketch_.reserve(num_edge_types);
  for (std::uint64_t e = 0; e < num_edge_types; ++e) {
    NETOUT_ASSIGN_OR_RETURN(AdjacencySketch fwd, ReadSketch(&cur));
    NETOUT_ASSIGN_OR_RETURN(AdjacencySketch rev, ReadSketch(&cur));
    const Csr& fwd_csr = hin->forward_[e];
    const Csr& rev_csr = hin->reverse_[e];
    if (fwd.rows != fwd_csr.num_rows() ||
        fwd.entries != fwd_csr.num_entries() ||
        rev.rows != rev_csr.num_rows() ||
        rev.entries != rev_csr.num_entries()) {
      return Status::Corruption("adjacency sketch does not match CSR");
    }
    hin->forward_sketch_.push_back(fwd);
    hin->reverse_sketch_.push_back(rev);
  }

  if (!cur.AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot payload");
  }
  return HinPtr(hin);
}

}  // namespace netout
