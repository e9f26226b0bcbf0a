#ifndef NETOUT_GRAPH_IO_H_
#define NETOUT_GRAPH_IO_H_

#include <string_view>

#include "common/result.h"
#include "graph/hin.h"

namespace netout {

/// Text interchange format (tab-separated, one record per line):
///
///   # comment
///   T <type_name>
///   E <edge_name> <src_type> <dst_type>
///   V <type_name> <vertex_name>
///   L <edge_name> <src_vertex_name> <dst_vertex_name>
///
/// Declarations must precede use. `V` lines are optional for vertices
/// that appear in `L` lines (links create their endpoints); they exist to
/// declare isolated vertices. Vertex names may contain spaces but not
/// tabs or newlines.
Result<HinPtr> LoadHinText(std::string_view path);
Status SaveHinText(const Hin& hin, std::string_view path);

/// Versioned binary snapshot with an FNV-1a integrity checksum over the
/// payload. Layout (little-endian):
///   magic "NOUTHIN2" | u64 payload_size | payload | u64 fnv1a(payload)
/// Payload: schema (type/edge-type names + endpoints), per-type vertex
/// name tables, per-edge-type forward CSR arrays (reverse CSRs are
/// rebuilt on load), then per-edge-type forward and reverse adjacency
/// sketches. Any other magic, including the sketch-less "NOUTHIN1",
/// fails with kCorruption.
Status SaveHinBinary(const Hin& hin, std::string_view path);
Result<HinPtr> LoadHinBinary(std::string_view path);

}  // namespace netout

#endif  // NETOUT_GRAPH_IO_H_
