// Ablation (extension beyond the paper): common-subexpression
// elimination in the logical->physical planner, measured on a
// BatchRunner batch (one shared plan) of a duplicate-heavy workload —
// Zipf-distributed Q1 anchors (an analyst drilling into a few
// neighborhoods) where each anchor is also queried at two different k
// ("re-run with a larger k"), so whole candidate/feature pipelines
// recur across the batch.
//
// With CSE on, the planner interns identical sets, materializations and
// scores once and every later query reuses the op; with CSE off, each
// use lowers its own op chain. The observable: total vectors
// materialized (fresh meta-path traversals) drops under CSE while
// vectors reused rises, with identical answers. Note the workload must
// be duplicate-heavy for this to pay off: on all-distinct queries a
// prefix split turns 2 traversal batches into 3 smaller ones, so the
// vector *count* can rise even as traversal work falls.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/efficiency_common.h"
#include "common/thread_pool.h"
#include "query/batch.h"

int main() {
  using namespace netout;
  using namespace netout::bench;

  PrintHeader("Ablation: merged-plan common-subexpression elimination");
  const std::size_t num_anchors =
      static_cast<std::size_t>(150 * BenchScale());
  EfficiencySetup setup = MakeEfficiencySetup(1);  // network only

  SkewedWorkloadConfig skewed_config;
  skewed_config.num_queries = num_anchors;
  skewed_config.seed = 77;
  skewed_config.zipf_exponent = 1.2;
  const auto anchors =
      Unwrap(GenerateSkewedWorkload(*setup.dataset.hin, "author",
                                    QueryTemplate::kQ1, skewed_config),
             "skewed workload");
  std::vector<std::string> queries;
  queries.reserve(anchors.size() * 2);
  for (const std::string& query : anchors) {
    queries.push_back(query);
    // The same pipeline at a different k: everything but the top-k op
    // is shareable.
    std::string larger_k = query;
    const std::size_t pos = larger_k.rfind("TOP 10;");
    if (pos != std::string::npos) larger_k.replace(pos, 7, "TOP 25;");
    queries.push_back(larger_k);
  }

  std::printf("%zu queries (%zu Zipf anchors x 2 k-values)\n",
              queries.size(), anchors.size());
  std::printf("%-14s %10s %14s %12s %8s\n", "mode", "time(ms)",
              "materialized", "reused", "ok");

  std::size_t materialized_cse_on = 0;
  std::size_t materialized_cse_off = 0;
  for (const bool cse : {true, false}) {
    ThreadPool pool(4);
    EngineOptions options;
    options.exec.plan_cse = cse;
    options.exec.pool = &pool;
    BatchRunner runner(setup.dataset.hin, options);
    Stopwatch watch;
    const std::vector<BatchOutcome> outcomes = runner.Run(queries);
    const double ms = watch.ElapsedMillis();
    std::size_t materialized = 0;
    std::size_t reused = 0;
    std::size_t ok = 0;
    for (const BatchOutcome& outcome : outcomes) {
      if (!outcome.status.ok()) continue;
      ++ok;
      materialized += outcome.result.stats.vectors_materialized;
      reused += outcome.result.stats.vectors_reused;
    }
    (cse ? materialized_cse_on : materialized_cse_off) = materialized;
    std::printf("%-14s %10.1f %14zu %12zu %8zu\n",
                cse ? "merged+cse" : "merged, no cse", ms, materialized,
                reused, ok);
  }

  if (materialized_cse_on < materialized_cse_off) {
    const double saved =
        100.0 * static_cast<double>(materialized_cse_off -
                                    materialized_cse_on) /
        static_cast<double>(materialized_cse_off);
    std::printf("CSE materializes %.1f%% fewer vectors on this workload\n",
                saved);
  } else {
    std::printf(
        "WARNING: CSE did not reduce materializations (on=%zu off=%zu)\n",
        materialized_cse_on, materialized_cse_off);
  }
  return 0;
}
