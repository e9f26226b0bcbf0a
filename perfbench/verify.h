// Answer checking. Every answer the benchmark receives is compared with
// the top-k of a plain in-memory Engine without an index, computed
// outside the timed region on the same graph snapshot.
#ifndef NETOUT_PERFBENCH_VERIFY_H_
#define NETOUT_PERFBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/delta.h"
#include "graph/hin.h"
#include "inputs.h"
#include "query/executor.h"
#include "server/protocol.h"

namespace perfbench {

/// One answered query, kept as a 64-bit digest so that holding every
/// answer of a run costs little memory. In-process answers digest the
/// OutlierEntry list bitwise (names, score bits, zero-visibility flags);
/// wire answers digest the bytes of the response's "outliers" array,
/// compared with the same serialization of the reference.
struct QueryAnswer {
  std::size_t position = 0;  // into Inputs::queries
  std::uint64_t epoch = 0;   // graph snapshot the answer was computed on
  bool ok = false;  // answered, and neither shed, refused nor degraded
  bool wire = false;
  std::uint64_t digest = 0;
};

/// One mutation, by its index in Inputs::mutations, with the epoch its
/// acknowledgement stated.
struct MutationAck {
  std::size_t mutation = 0;
  bool ok = false;
  std::uint64_t epoch = 0;
};

struct VerifyStats {
  std::size_t queries = 0;
  std::size_t mutations = 0;
  std::size_t failed = 0;      // not ok (error, shed, refused, degraded)
  std::size_t mismatched = 0;  // ok, but differs from the reference
};

/// Parses one NDJSON request line (a trailing newline is allowed).
netout::Result<netout::Request> ParseLine(std::string_view line);

/// Stages a parsed mutation request on `graph` the way the server does
/// (add_edge creates missing endpoints).
netout::Status StageMutation(netout::MutableHin* graph,
                             const netout::Request& request);

/// Digest of an in-process answer.
std::uint64_t AnswerDigest(const std::vector<netout::OutlierEntry>& outliers);

/// The `"outliers":[...]` bytes of a QueryResultToJson document, or an
/// empty view when absent.
std::string_view OutliersJson(std::string_view result_json);

/// Checks `answers` and `acks` against reference engines on `root`. A
/// reference MutableHin replays the acknowledged mutations in stream
/// order, committing once per acknowledged epoch, so each answer is
/// compared on the snapshot of the epoch it states. Acks must be in
/// issue order.
VerifyStats Verify(const netout::HinPtr& root, const Inputs& inputs,
                   const std::vector<QueryAnswer>& answers,
                   const std::vector<MutationAck>& acks,
                   std::size_t threads);

}  // namespace perfbench

#endif  // NETOUT_PERFBENCH_VERIFY_H_
