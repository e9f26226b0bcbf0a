#include "replay.h"

#include <cstdio>
#include <span>

#include "graph/segment.h"
#include "index/incremental.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "query/physical_plan.h"
#include "query/planner.h"
#include "server/protocol.h"

namespace perfbench {

using namespace netout;

namespace {

constexpr const char* kSpanNameText[kNumSpanNames] = {
    "request",          "server.parse_request", "query.parse",
    "query.analyze",    "query.plan",           "exec.evalset",
    "exec.filter",      "exec.materialize",     "exec.build_matrix",
    "exec.score",       "exec.combine",         "exec.topk",
    "exec.assemble",    "server.build_response", "graph.commit",
    "index.apply_delta",
};

/// Fewest requests a replay runs, whatever its time budget.
constexpr std::size_t kMinRequests = 64;

SpanName OpSpan(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kEvalSet:
      return kSpanEvalSet;
    case PhysOpKind::kFilter:
      return kSpanFilter;
    case PhysOpKind::kMaterialize:
      return kSpanMaterialize;
    case PhysOpKind::kScore:
      return kSpanScore;
    case PhysOpKind::kCombine:
      return kSpanCombine;
    case PhysOpKind::kTopK:
      return kSpanTopK;
    case PhysOpKind::kBuildMatrix:
      return kSpanBuildMatrix;
  }
  return kSpanRequest;
}

/// Records one child span around a call when `tracer` is set.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name)
      : tracer_(tracer), span_(tracer != nullptr ? tracer->Begin(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

ShardedStorageStats StorageStats(const Hin& hin) {
  return hin.shard_store() != nullptr ? hin.shard_store()->Stats()
                                      : ShardedStorageStats{};
}

}  // namespace

std::size_t Tracer::Begin(SpanName name) {
  spans_.push_back(Span{spans_[static_cast<std::size_t>(root_)].request,
                        root_, name, NowNs(), 0});
  return spans_.size() - 1;
}

void Tracer::End(std::size_t span) { spans_[span].end_ns = NowNs(); }

void Tracer::BeginRequest(std::uint32_t request) {
  root_ = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{request, -1, kSpanRequest, NowNs(), 0});
}

void Tracer::EndRequest() {
  spans_[static_cast<std::size_t>(root_)].end_ns = NowNs();
  root_ = -1;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "request\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%u\t%zu\t%lld\t%s\t%lld\t%lld\n", s.request, i,
                 static_cast<long long>(s.parent), kSpanNameText[s.name],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(file) == 0;
}

Replayer::Replayer(const WorkloadSpec& spec, System* system,
                   const Inputs& inputs)
    : spec_(spec), system_(system), inputs_(inputs), hin_(system->hin()) {
  executor_ =
      std::make_unique<Executor>(hin_, system_->index(), ExecOptions{});
}

void Replayer::Run(std::int64_t budget_ns) {
  const ShardedStorageStats before = StorageStats(*hin_);
  const std::int64_t start = NowNs();
  for (std::size_t i = 0;
       i < kMinRequests || NowNs() - start < budget_ns; ++i) {
    const std::size_t position = i % inputs_.size();
    const bool traced = i % 2 == 1;
    if (traced) {
      tracer_.BeginRequest(static_cast<std::uint32_t>(i));
      active_ = &tracer_;
    }
    if (inputs_.is_mutation[position]) {
      RunMutation(next_mutation_++, traced);
    } else {
      RunQuery(position, traced);
    }
    if (traced) {
      tracer_.EndRequest();
      active_ = nullptr;
    }
  }
  const ShardedStorageStats after = StorageStats(*hin_);
  segment_faults_ = after.faults - before.faults;
  segment_evictions_ = after.evictions - before.evictions;
}

void Replayer::RunQuery(std::size_t position, bool traced) {
  const std::int64_t start = NowNs();
  ++queries_;
  QueryAnswer answer;
  answer.position = position;
  // A failed query is kept with ok == false; the check counts it.
  const auto fail = [&] { answers_.push_back(std::move(answer)); };

  Request request;
  std::string_view text = inputs_.queries[position];
  if (spec_.served) {
    Scope scope(active_, kSpanParseRequest);
    Result<Request> parsed = ParseLine(inputs_.query_lines[position]);
    if (!parsed.ok()) return fail();
    request = std::move(parsed).value();
    text = request.query;
  }
  QueryAst ast;
  {
    Scope scope(active_, kSpanParse);
    Result<QueryAst> parsed = ParseQuery(text);
    if (!parsed.ok()) return fail();
    ast = std::move(parsed).value();
  }
  QueryPlan plan;
  {
    Scope scope(active_, kSpanAnalyze);
    Result<QueryPlan> analyzed = AnalyzeQuery(*hin_, ast, AnalyzerOptions{});
    if (!analyzed.ok()) return fail();
    plan = std::move(analyzed).value();
  }
  PhysicalPlan physical;
  std::size_t query_index = 0;
  {
    Scope scope(active_, kSpanPlan);
    // The planner settings Executor::Run derives from default ExecOptions.
    Planner planner(*hin_, PlannerOptions{true, true, system_->index()});
    query_index = planner.AddQuery(plan);
    physical = planner.Take();
  }

  // Executor::Run's schedule: the set phase, the empty-candidate
  // early-out, then the feature pipeline.
  const PlanQuery& entry = physical.queries[query_index];
  std::vector<OpOutput> slots(physical.ops.size());
  std::vector<PlanOpRuntime> runtimes(physical.ops.size());
  std::size_t ops = 0;
  const auto run_ops = [&](const std::vector<std::size_t>& ids) {
    for (const std::size_t id : ids) {
      if (slots[id].has_value) continue;
      Scope scope(active_, OpSpan(physical.ops[id].kind));
      ++ops;
      if (!executor_
               ->ExecuteOp(physical, id, std::span<OpOutput>(slots),
                           &runtimes[id])
               .ok()) {
        return false;
      }
    }
    return true;
  };
  if (!run_ops(entry.set_phase_ops)) return fail();
  if (!slots[entry.candidate_op].members.empty()) {
    if (slots[entry.reference_op].members.empty()) return fail();
    if (!run_ops(entry.ops)) return fail();
  }
  QueryResult result;
  {
    Scope scope(active_, kSpanAssemble);
    result = executor_->AssembleResult(physical, query_index, slots,
                                       runtimes);
  }
  if (spec_.served) {
    Scope scope(active_, kSpanBuildResponse);
    response_bytes_ +=
        BuildQueryResponse(*hin_, request, result, false,
                           NsToMs(NowNs() - start))
            .size();
  }

  const std::int64_t elapsed = NowNs() - start;
  if (traced) {
    traced_query_ns_.push_back(static_cast<double>(elapsed));
    ++traced_queries_;
    ops_ += ops;
    vectors_materialized_ += result.stats.vectors_materialized;
    vectors_reused_ += result.stats.vectors_reused;
    index_hits_ += result.stats.eval.index_hits;
    index_misses_ += result.stats.eval.index_misses;
    candidates_ += result.stats.candidate_count;
    references_ += result.stats.reference_count;
  } else {
    untraced_query_ns_.push_back(static_cast<double>(elapsed));
  }
  answer.epoch = hin_->epoch();
  answer.ok = !result.degraded;
  answer.digest = AnswerDigest(result.outliers);
  answers_.push_back(std::move(answer));
}

void Replayer::RunMutation(std::size_t mutation, bool traced) {
  MutationAck ack;
  ack.mutation = mutation;
  const auto finish = [&] { acks_.push_back(ack); };
  if (mutation >= inputs_.mutations.size()) return finish();

  Request request;
  {
    Scope scope(active_, kSpanParseRequest);
    Result<Request> parsed = ParseLine(inputs_.mutations[mutation]);
    if (!parsed.ok()) return finish();
    request = std::move(parsed).value();
  }
  CommitResult committed;
  {
    Scope scope(active_, kSpanCommit);
    if (!StageMutation(system_->mutable_graph(), request).ok()) {
      return finish();
    }
    Result<CommitResult> result = system_->mutable_graph()->Commit();
    if (!result.ok()) return finish();
    committed = std::move(result).value();
  }
  const std::uint64_t patched_before = system_->spm()->rows_patched();
  {
    // The daemon's publish step: keyed rows, SPM patch, cache epoch.
    Scope scope(active_, kSpanApplyDelta);
    const Hin& after = *committed.snapshot.hin;
    const AffectedRows affected =
        AffectedTwoStepRows(after, committed.summary);
    if (!system_->spm()->ApplyDelta(after, affected).ok()) return finish();
    system_->cache()->BeginEpoch(committed.snapshot.epoch, affected);
  }
  {
    Scope scope(active_, kSpanBuildResponse);
    response_bytes_ +=
        BuildMutationResponse(request, committed.snapshot.epoch).size();
  }
  if (traced) {
    ++traced_mutations_;
    rows_patched_ += system_->spm()->rows_patched() - patched_before;
  }
  // Later queries run on the new snapshot, as after the daemon's
  // snapshot swap.
  hin_ = committed.snapshot.hin;
  executor_ =
      std::make_unique<Executor>(hin_, system_->index(), ExecOptions{});
  ack.ok = true;
  ack.epoch = committed.snapshot.epoch;
  finish();
}

void Replayer::AddMetrics(MetricList* metrics) const {
  // Self time per span name: duration minus the children's durations.
  std::vector<double> self_ns(kNumSpanNames, 0.0);
  double root_ns = 0.0;
  const std::vector<Span>& spans = tracer_.spans();
  for (const Span& span : spans) {
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    self_ns[span.name] += duration;
    if (span.parent >= 0) {
      self_ns[spans[static_cast<std::size_t>(span.parent)].name] -= duration;
    } else {
      root_ns += duration;
    }
  }
  const auto queries = static_cast<double>(traced_queries_);
  const auto mutations = static_cast<double>(traced_mutations_);
  const double requests = queries + mutations;
  const auto us_per = [&](SpanName name, double count) {
    return Ratio(self_ns[name] / 1e3, count);
  };
  metrics->Add("query.parse_us", us_per(kSpanParse, queries), "us");
  metrics->Add("query.analyze_us", us_per(kSpanAnalyze, queries), "us");
  metrics->Add("query.plan_us", us_per(kSpanPlan, queries), "us");
  metrics->Add("query.ops_per_query", Ratio(static_cast<double>(ops_), queries),
               "count");
  metrics->Add("exec.evalset_us", us_per(kSpanEvalSet, queries), "us");
  metrics->Add("exec.filter_us", us_per(kSpanFilter, queries), "us");
  metrics->Add("exec.materialize_us", us_per(kSpanMaterialize, queries),
               "us");
  metrics->Add("exec.build_matrix_us", us_per(kSpanBuildMatrix, queries),
               "us");
  metrics->Add("exec.score_us", us_per(kSpanScore, queries), "us");
  metrics->Add("exec.combine_us", us_per(kSpanCombine, queries), "us");
  metrics->Add("exec.topk_us", us_per(kSpanTopK, queries), "us");
  metrics->Add("exec.assemble_us", us_per(kSpanAssemble, queries), "us");
  metrics->Add("exec.vectors_per_query",
               Ratio(static_cast<double>(vectors_materialized_), queries),
               "count");
  metrics->Add("query.reuse_ratio",
               Ratio(static_cast<double>(vectors_reused_),
                     static_cast<double>(vectors_reused_ +
                                         vectors_materialized_)),
               "ratio");
  metrics->Add("metapath.index_hit_ratio",
               Ratio(static_cast<double>(index_hits_),
                     static_cast<double>(index_hits_ + index_misses_)),
               "ratio");
  metrics->Add("measure.candidates_per_query",
               Ratio(static_cast<double>(candidates_), queries), "count");
  metrics->Add("measure.references_per_query",
               Ratio(static_cast<double>(references_), queries), "count");
  metrics->Add("measure.score_ns_per_candidate",
               Ratio(self_ns[kSpanScore], static_cast<double>(candidates_)),
               "ns");
  metrics->Add("index.apply_delta_us", us_per(kSpanApplyDelta, mutations),
               "us");
  metrics->Add("index.rows_patched_per_commit",
               Ratio(static_cast<double>(rows_patched_), mutations), "count");
  metrics->Add("graph.commit_us", us_per(kSpanCommit, mutations), "us");
  const auto all_queries = static_cast<double>(queries_);
  metrics->Add("graph.segment_faults_per_query",
               Ratio(static_cast<double>(segment_faults_), all_queries),
               "count");
  metrics->Add("graph.segment_evictions_per_query",
               Ratio(static_cast<double>(segment_evictions_), all_queries),
               "count");
  metrics->Add("graph.resident_mb",
               static_cast<double>(StorageStats(*hin_).resident_bytes) /
                   (1024.0 * 1024.0),
               "MiB");
  metrics->Add("server.parse_request_us",
               us_per(kSpanParseRequest, requests), "us");
  metrics->Add("server.build_response_us",
               us_per(kSpanBuildResponse, requests), "us");
  metrics->Add("trace.other_frac", Ratio(self_ns[kSpanRequest], root_ns),
               "ratio");
  const double untraced = Median(untraced_query_ns_);
  metrics->Add("trace.overhead_frac",
               untraced > 0.0 ? Median(traced_query_ns_) / untraced - 1.0
                              : 0.0,
               "ratio");
}

}  // namespace perfbench
