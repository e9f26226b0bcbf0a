#include "query/progressive.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/random.h"
#include "common/stopwatch.h"
#include "measure/connectivity.h"
#include "measure/topk.h"

namespace netout {
namespace {

/// Welford-style accumulator over per-batch score estimates; provides
/// the jackknife standard error of the mean.
struct BatchStats {
  std::size_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Add(double value) {
    ++n;
    const double delta = value - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (value - mean);
  }

  double StandardError() const {
    if (n < 2) return 0.0;
    const double variance = m2 / static_cast<double>(n - 1);
    return std::sqrt(variance / static_cast<double>(n));
  }
};

}  // namespace

ProgressiveExecutor::ProgressiveExecutor(HinPtr hin,
                                         const MetaPathIndex* index,
                                         const ExecOptions& exec_options,
                                         const ProgressiveOptions& options)
    : hin_(std::move(hin)),
      exec_options_(exec_options),
      options_(options),
      executor_(hin_, index, exec_options),
      evaluator_(hin_, index) {}

Result<QueryResult> ProgressiveExecutor::Run(
    const QueryPlan& plan, const ProgressiveCallback& callback) {
  return Run(plan, callback, nullptr);
}

Result<QueryResult> ProgressiveExecutor::Run(
    const QueryPlan& plan, const ProgressiveCallback& callback,
    const CancellationToken* cancel) {
  if (plan.measure != OutlierMeasure::kNetOut) {
    return Status::Unimplemented(
        "progressive execution supports the NetOut measure only");
  }
  if (plan.combine != CombineMode::kWeightedAverage) {
    return Status::Unimplemented(
        "progressive execution supports weighted-average combination only");
  }
  // Candidate materialization may fan out over ExecOptions::pool.
  NETOUT_RETURN_IF_ERROR(executor_.CheckConcurrentUse());

  // The run's control token, armed from the same ExecOptions limits a
  // plain Executor::Run would use, chained with the caller's handle.
  // Progressive execution degrades especially gracefully: every
  // published snapshot is a complete (extrapolated) answer, so a limit
  // trip under StopPolicy::kPartial just keeps the latest one.
  const CancellationToken control(exec_options_.timeout_millis,
                                  exec_options_.memory_budget_bytes, cancel);
  const CancellationToken* token =
      control.has_limits() || cancel != nullptr ? &control : nullptr;
  struct TokenScope {
    ProgressiveExecutor* self;
    ~TokenScope() {
      self->executor_.SetStopToken(nullptr);
      self->evaluator_.SetStopToken(nullptr);
    }
  } scope{this};
  executor_.SetStopToken(token);
  evaluator_.SetStopToken(token);

  Stopwatch total_watch;
  QueryResult result;

  // Turns a stop status into the policy-selected outcome: the status
  // itself under kError, or the result as accumulated so far (outliers =
  // the last published snapshot) marked degraded under kPartial. Real
  // errors never come through here.
  const auto degrade = [&](const Status& stop) -> Result<QueryResult> {
    if (exec_options_.stop_policy == StopPolicy::kError) return stop;
    result.degraded = true;
    result.stop_reason =
        token != nullptr && token->stop_reason() != StopReason::kNone
            ? token->stop_reason()
            : StopReasonFromStatus(stop.code());
    result.stats.total_nanos = total_watch.ElapsedNanos();
    return std::move(result);
  };

  Result<std::vector<VertexRef>> candidates_or =
      executor_.EvaluateSet(plan.candidate);
  if (!candidates_or.ok()) {
    if (IsStopStatus(candidates_or.status())) {
      return degrade(candidates_or.status());
    }
    return candidates_or.status();
  }
  std::vector<VertexRef> candidate_refs = std::move(candidates_or).value();
  std::vector<VertexRef> reference_refs;
  if (plan.reference.has_value()) {
    Result<std::vector<VertexRef>> references_or =
        executor_.EvaluateSet(*plan.reference);
    if (!references_or.ok()) {
      if (IsStopStatus(references_or.status())) {
        return degrade(references_or.status());
      }
      return references_or.status();
    }
    reference_refs = std::move(references_or).value();
  } else {
    reference_refs = candidate_refs;
  }
  result.stats.candidate_count = candidate_refs.size();
  result.stats.reference_count = reference_refs.size();
  if (candidate_refs.empty()) {
    result.stats.total_nanos = total_watch.ElapsedNanos();
    return result;
  }
  if (reference_refs.empty()) {
    return Status::FailedPrecondition("the reference set is empty");
  }

  const std::size_t num_paths = plan.features.size();
  const std::size_t num_candidates = candidate_refs.size();
  const std::size_t num_references = reference_refs.size();

  // Materialize candidate vectors and visibilities per feature path.
  std::vector<std::vector<SparseVector>> cand_vectors(num_paths);
  std::vector<std::vector<double>> cand_visibility(num_paths);
  double weight_total = 0.0;
  for (const WeightedMetaPath& feature : plan.features) {
    weight_total += feature.weight;
  }
  if (weight_total <= 0.0) {
    return Status::InvalidArgument("total meta-path weight must be > 0");
  }
  std::vector<bool> zero_visibility(num_candidates, true);
  {
    // Candidate vectors go through the executor's sharded batch
    // materialization (it fans out over ExecOptions::pool when large
    // enough); only the incremental reference folding below stays
    // per-vertex.
    std::vector<LocalId> candidate_locals(num_candidates);
    for (std::size_t i = 0; i < num_candidates; ++i) {
      candidate_locals[i] = candidate_refs[i].local;
    }
    Stopwatch materialize_watch;
    for (std::size_t p = 0; p < num_paths; ++p) {
      Result<std::vector<SparseVector>> vectors_or =
          executor_.MaterializeVectors(plan.subject_type,
                                       plan.features[p].path,
                                       candidate_locals,
                                       &result.stats.eval);
      if (!vectors_or.ok()) {
        result.stats.stages.materialize_nanos +=
            materialize_watch.ElapsedNanos();
        if (IsStopStatus(vectors_or.status())) {
          return degrade(vectors_or.status());
        }
        return vectors_or.status();
      }
      cand_vectors[p] = std::move(vectors_or).value();
      cand_visibility[p].resize(num_candidates);
      for (std::size_t i = 0; i < num_candidates; ++i) {
        cand_visibility[p][i] = Visibility(cand_vectors[p][i].View());
        if (cand_visibility[p][i] > 0.0) zero_visibility[i] = false;
      }
    }
    result.stats.stages.materialize_nanos += materialize_watch.ElapsedNanos();
  }

  // Shuffled reference processing order.
  std::vector<std::size_t> order(num_references);
  for (std::size_t i = 0; i < num_references; ++i) order[i] = i;
  Rng rng(options_.shuffle_seed);
  rng.Shuffle(&order);

  const std::size_t num_batches =
      std::max<std::size_t>(1, std::min(options_.num_batches,
                                        num_references));

  // Running reference sums per path, cumulative combined estimates, and
  // per-candidate batch statistics.
  std::vector<SparseVector> refsum(num_paths);
  std::vector<BatchStats> batch_stats(num_candidates);
  std::vector<double> estimates(num_candidates, 0.0);

  std::size_t processed = 0;
  bool stopped_early = false;
  for (std::size_t batch = 0; batch < num_batches && !stopped_early;
       ++batch) {
    // Batch boundaries are the progressive loop's stop granularity; the
    // traversals inside also poll through the installed token.
    if (token != nullptr && token->ShouldStop()) {
      return degrade(token->ToStatus());
    }
    const std::size_t begin = batch * num_references / num_batches;
    const std::size_t end = (batch + 1) * num_references / num_batches;
    if (begin == end) continue;

    // Fold this batch's reference vectors into the running sums, and
    // keep the batch-only sums for the jackknife.
    Stopwatch materialize_watch;
    std::vector<SparseVector> batch_sum(num_paths);
    DenseAccumulator batch_acc;
    for (std::size_t p = 0; p < num_paths; ++p) {
      // Accumulate the batch densely: the old running AddScaled re-merged
      // the growing batch sum once per reference (quadratic in the batch's
      // total nnz). Per-slot adds happen in the same reference order, so
      // the harvested sum is bit-identical.
      batch_acc.Resize(
          hin_->NumVertices(plan.features[p].path.target_type()));
      for (std::size_t r = begin; r < end; ++r) {
        Result<SparseVector> phi_or =
            evaluator_.Evaluate(reference_refs[order[r]],
                                plan.features[p].path,
                                &result.stats.eval);
        if (!phi_or.ok()) {
          result.stats.stages.materialize_nanos +=
              materialize_watch.ElapsedNanos();
          if (IsStopStatus(phi_or.status())) {
            return degrade(phi_or.status());
          }
          return phi_or.status();
        }
        SparseVector phi = std::move(phi_or).value();
        if (token != nullptr) token->ChargeBytes(phi.MemoryBytes());
        batch_acc.AddSpan(phi.indices(), phi.values(), 1.0);
      }
      batch_sum[p] = batch_acc.Harvest();
      refsum[p] = AddScaled(refsum[p].View(), batch_sum[p].View(), 1.0);
    }
    processed += end - begin;
    result.stats.stages.materialize_nanos += materialize_watch.ElapsedNanos();

    Stopwatch score_watch;
    const double extrapolate =
        static_cast<double>(num_references) / static_cast<double>(processed);
    const double batch_extrapolate =
        static_cast<double>(num_references) /
        static_cast<double>(end - begin);
    for (std::size_t i = 0; i < num_candidates; ++i) {
      double estimate = 0.0;
      double batch_estimate = 0.0;
      for (std::size_t p = 0; p < num_paths; ++p) {
        if (cand_visibility[p][i] == 0.0) continue;
        const double w = plan.features[p].weight / weight_total;
        estimate += w * Dot(cand_vectors[p][i].View(), refsum[p].View()) /
                    cand_visibility[p][i];
        batch_estimate += w *
                          Dot(cand_vectors[p][i].View(),
                              batch_sum[p].View()) /
                          cand_visibility[p][i];
      }
      estimates[i] = estimate * extrapolate;
      batch_stats[i].Add(batch_estimate * batch_extrapolate);
    }
    result.stats.stages.score_nanos += score_watch.ElapsedNanos();

    // Build and publish the snapshot.
    Stopwatch topk_watch;
    ProgressiveSnapshot snapshot;
    snapshot.fraction_processed =
        static_cast<double>(processed) / static_cast<double>(num_references);
    snapshot.final = (processed == num_references);
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < num_candidates; ++i) {
      if (exec_options_.skip_zero_visibility && zero_visibility[i]) continue;
      eligible.push_back(i);
    }
    std::vector<double> eligible_scores;
    eligible_scores.reserve(eligible.size());
    for (std::size_t i : eligible) eligible_scores.push_back(estimates[i]);
    const std::vector<std::size_t> top = SelectTopK(
        eligible_scores, plan.top_k, /*smaller_is_more_outlying=*/true);
    for (std::size_t rank : top) {
      const std::size_t i = eligible[rank];
      OutlierEntry entry;
      entry.vertex = candidate_refs[i];
      entry.name = hin_->VertexName(entry.vertex);
      entry.score = estimates[i];
      entry.zero_visibility = zero_visibility[i];
      snapshot.top.push_back(std::move(entry));
      snapshot.standard_error.push_back(batch_stats[i].StandardError());
    }
    if (snapshot.final || batch + 1 == num_batches) snapshot.final = true;
    result.stats.stages.topk_nanos += topk_watch.ElapsedNanos();

    result.outliers = snapshot.top;
    if (callback && !callback(snapshot)) {
      // The user accepted an approximate answer: the estimates stand,
      // but the result must say it is partial (unless this was already
      // the final snapshot and the scores are exact).
      stopped_early = true;
      if (!snapshot.final) {
        result.degraded = true;
        result.stop_reason = StopReason::kCallback;
      }
    }
  }

  result.stats.total_nanos = total_watch.ElapsedNanos();
  return result;
}

}  // namespace netout
