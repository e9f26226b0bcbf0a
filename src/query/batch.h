#ifndef NETOUT_QUERY_BATCH_H_
#define NETOUT_QUERY_BATCH_H_

#include <string>
#include <vector>

#include "query/engine.h"

namespace netout {

/// One query of a batch with an optional per-query cancel handle
/// (borrowed, may be null; must outlive the Run call). The handle chains
/// into the query's own control token — which also arms the engine-wide
/// ExecOptions timeout/budget — so one slow query can be stopped without
/// touching the rest of the batch.
struct BatchQuery {
  std::string text;
  const CancellationToken* cancel = nullptr;
};

/// Executes batches of outlier queries as one shared physical plan:
/// every query is lowered into the same Planner, so identical set
/// expressions, WHERE conditions and feature materializations — and
/// common meta-path prefixes — across queries become one shared
/// operator, and RunPhysicalPlan runs the DAG. Per-query answers are
/// bitwise identical to a solo Engine::Execute; stats differ in that
/// shared work is charged to the first query that requested it and
/// counted as vectors_reused by the others, and total_nanos sums the
/// query's parse, analyze and per-operator wall times rather than one
/// end-to-end clock.
///
/// The plan runs inline on the calling thread; large operators fan out
/// over `engine_options.exec.pool` exactly as in a solo query.
///
/// This is an extension beyond the paper (whose measurements are
/// single-threaded, as are the Figure 3-5 benches here); it serves
/// multi-analyst / dashboard workloads.
class BatchRunner {
 public:
  /// `engine_options.index` and `engine_options.exec.pool` are borrowed
  /// and must outlive the runner.
  BatchRunner(HinPtr hin, const EngineOptions& engine_options);

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Runs every query; outcomes are returned in input order. Individual
  /// query failures are reported per-outcome, never thrown/propagated.
  /// Re-entrant: concurrent Run() calls from different threads each run
  /// on their own executor and complete independently (a fan-out waits
  /// on its own TaskGroup, not the pool's global idle state). With a
  /// pool and an index that reports SupportsConcurrentUse() == false,
  /// every outcome fails with kFailedPrecondition (RunPhysicalPlan).
  ///
  /// Deadlines/budgets/cancellation are per query: each query carries
  /// its own control token, installed only around the operators that
  /// query owns alone. Shared operators never observe any token (a stop
  /// must not poison the queries still running), and an operator is
  /// skipped once no consuming query is live (RunPhysicalPlan). A
  /// stopped query resolves like a solo run: its stop status under
  /// StopPolicy::kError, or a degraded partial result under kPartial.
  std::vector<BatchOutcome> Run(const std::vector<std::string>& queries);
  std::vector<BatchOutcome> Run(const std::vector<BatchQuery>& queries);

  /// Swaps the graph snapshot subsequent Run calls execute against
  /// (epoch publication after a MutableHin commit). NOT synchronized
  /// against Run: the caller must serialize SetSnapshot with every Run
  /// call — the server does both on its single dispatcher thread, which
  /// is exactly the serialization the delta-maintained indexes need too.
  void SetSnapshot(HinPtr hin);

 private:
  HinPtr hin_;
  EngineOptions options_;
};

}  // namespace netout

#endif  // NETOUT_QUERY_BATCH_H_
