// The traced replay: the workload's generated requests, one at a time,
// through each layer's public calls (ParseRequest, ParseQuery,
// AnalyzeQuery, Planner, Executor::ExecuteOp per op, AssembleResult,
// BuildQueryResponse; MutableHin::Commit and the index delta patch for
// mutations), with a span recorded around every call.
#ifndef NETOUT_PERFBENCH_REPLAY_H_
#define NETOUT_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/hin.h"
#include "inputs.h"
#include "query/executor.h"
#include "system.h"
#include "util.h"
#include "verify.h"

namespace perfbench {

/// Span names, one per layer boundary. The metric of a span is its
/// name plus "_us": the mean self time per traced query (query.*,
/// exec.*), per traced request (server.*) or per traced mutation
/// (graph.commit, index.apply_delta). "request" is the root span of one
/// request; its self time is what no child covers (trace.other_frac).
enum SpanName : std::uint8_t {
  kSpanRequest,
  kSpanParseRequest,
  kSpanParse,
  kSpanAnalyze,
  kSpanPlan,
  kSpanEvalSet,
  kSpanFilter,
  kSpanMaterialize,
  kSpanBuildMatrix,
  kSpanScore,
  kSpanCombine,
  kSpanTopK,
  kSpanAssemble,
  kSpanBuildResponse,
  kSpanCommit,
  kSpanApplyDelta,
  kNumSpanNames,
};

struct Span {
  std::uint32_t request = 0;
  std::int64_t parent = -1;  // index of the parent span; -1 for a root
  SpanName name = kSpanRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory and written out when the run ends.
class Tracer {
 public:
  /// Reserves room up front, so growing the span list never lands a
  /// reallocation inside a timed span.
  Tracer() { spans_.reserve(std::size_t{1} << 20); }

  std::size_t Begin(SpanName name);
  void End(std::size_t span);
  /// Starts the root span of request `request`; later spans until
  /// EndRequest are its children.
  void BeginRequest(std::uint32_t request);
  void EndRequest();

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one span per line: request, span, parent, name, start_ns,
  /// end_ns (tab-separated, with a header line).
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int64_t root_ = -1;
};

class Replayer {
 public:
  /// Drives `system` (set up without a server) with `inputs`.
  Replayer(const WorkloadSpec& spec, System* system, const Inputs& inputs);

  /// Replays requests in pool order until `budget_ns` has passed (and at
  /// least a minimum number of requests ran). Odd requests are traced,
  /// even ones run the same calls with tracing off, so the two halves
  /// see the same state sequence and their medians give the overhead.
  void Run(std::int64_t budget_ns);

  /// Adds the per-layer metrics derived from the spans and from the
  /// counters the program exposes.
  void AddMetrics(MetricList* metrics) const;

  const Tracer& tracer() const { return tracer_; }
  const std::vector<QueryAnswer>& answers() const { return answers_; }
  const std::vector<MutationAck>& acks() const { return acks_; }

 private:
  void RunQuery(std::size_t position, bool traced);
  void RunMutation(std::size_t mutation, bool traced);

  const WorkloadSpec& spec_;
  System* system_;
  const Inputs& inputs_;
  netout::HinPtr hin_;  // current snapshot
  std::unique_ptr<netout::Executor> executor_;
  Tracer tracer_;
  Tracer* active_ = nullptr;  // &tracer_ while a traced request runs

  std::vector<QueryAnswer> answers_;
  std::vector<MutationAck> acks_;
  std::size_t next_mutation_ = 0;
  std::size_t response_bytes_ = 0;  // keeps the built responses in use

  // Traced-request counters.
  std::size_t traced_queries_ = 0;
  std::size_t traced_mutations_ = 0;
  std::size_t ops_ = 0;
  std::size_t vectors_materialized_ = 0;
  std::size_t vectors_reused_ = 0;
  std::size_t index_hits_ = 0;
  std::size_t index_misses_ = 0;
  std::size_t candidates_ = 0;
  std::size_t references_ = 0;
  std::uint64_t rows_patched_ = 0;

  // Whole-replay counters.
  std::size_t queries_ = 0;
  std::uint64_t segment_faults_ = 0;
  std::uint64_t segment_evictions_ = 0;

  std::vector<double> traced_query_ns_;
  std::vector<double> untraced_query_ns_;
};

}  // namespace perfbench

#endif  // NETOUT_PERFBENCH_REPLAY_H_
