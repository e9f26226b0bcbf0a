// Ablation (extension beyond the paper): the dynamic memoization cache
// (index/cached_index.h) against the paper's static strategies, on two
// Q1 workloads —
//   uniform : fresh random anchors per query (the paper's Table 4
//             procedure; little reuse to exploit),
//   skewed  : Zipf-distributed anchors (an analyst drilling into a few
//             neighborhoods; heavy reuse).
// Expected shape: the cache sits between Baseline and PM on both
// workloads (hot candidate vertices recur even under uniform anchors),
// with a higher hit rate and smaller footprint under skew — all with
// zero build time.

#include <cstdio>
#include <memory>

#include "bench/efficiency_common.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "index/cached_index.h"
#include "index/pm_index.h"
#include "index/spm_index.h"

int main() {
  using namespace netout;
  using namespace netout::bench;

  PrintHeader("Ablation: dynamic cache vs static pre-materialization");
  const std::size_t num_queries =
      static_cast<std::size_t>(300 * BenchScale());
  EfficiencySetup setup = MakeEfficiencySetup(1);  // network only

  SkewedWorkloadConfig skewed_config;
  skewed_config.num_queries = num_queries;
  skewed_config.seed = 77;
  skewed_config.zipf_exponent = 1.2;
  const auto skewed =
      Unwrap(GenerateSkewedWorkload(*setup.dataset.hin, "author",
                                    QueryTemplate::kQ1, skewed_config),
             "skewed workload");
  WorkloadConfig uniform_config;
  uniform_config.num_queries = num_queries;
  uniform_config.seed = 78;
  const auto uniform =
      Unwrap(GenerateWorkload(*setup.dataset.hin, "author",
                              QueryTemplate::kQ1, uniform_config),
             "uniform workload");

  // Static strategies, built once.
  const Schema& schema = setup.dataset.hin->schema();
  const std::vector<TypeId> roots = {
      Unwrap(schema.FindVertexType("author"), "type"),
      Unwrap(schema.FindVertexType("venue"), "type"),
      Unwrap(schema.FindVertexType("term"), "type")};
  const auto pm =
      Unwrap(PmIndex::BuildForRoots(*setup.dataset.hin, roots), "PM");
  SpmOptions spm_options;
  spm_options.relative_frequency_threshold = 0.01;
  const auto init_sets =
      SpmInitializationSets(setup.dataset, QueryTemplate::kQ1);
  const auto spm = Unwrap(
      SpmIndex::Build(*setup.dataset.hin, init_sets, spm_options), "SPM");

  std::printf("%zu queries per workload\n", num_queries);
  std::printf("%-10s %-10s %12s %16s %14s\n", "workload", "strategy",
              "time(ms)", "index/cache", "hit-rate");

  for (const auto* workload : {&uniform, &skewed}) {
    const char* workload_name = workload == &uniform ? "uniform" : "skewed";
    // Baseline.
    {
      Engine engine(setup.dataset.hin);
      const double ms = RunQuerySet(&engine, *workload, nullptr);
      std::printf("%-10s %-10s %12.1f %16s %14s\n", workload_name,
                  "baseline", ms, "-", "-");
    }
    // Dynamic cache (fresh per workload: cold start included), serial
    // and with a 4-worker pool, which the sharded cache serves
    // concurrently whenever an operator is large enough to fan out. On
    // 1-CPU containers the t4 row shows overhead, not speedup; the
    // interesting check there is that hit rate and output stay identical.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      CachedIndex cache;
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      EngineOptions options;
      options.index = &cache;
      options.exec.pool = pool.get();
      Engine engine(setup.dataset.hin, options);
      QueryExecStats stats;
      const double ms = RunQuerySet(&engine, *workload, &stats);
      const double hit_rate =
          static_cast<double>(stats.eval.index_hits) /
          static_cast<double>(stats.eval.index_hits +
                              stats.eval.index_misses);
      const std::string label =
          threads == 1 ? "cache" : "cache(t" + std::to_string(threads) + ")";
      std::printf("%-10s %-10s %12.1f %16s %13.0f%%\n", workload_name,
                  label.c_str(), ms, HumanBytes(cache.MemoryBytes()).c_str(),
                  hit_rate * 100.0);
    }
    // SPM.
    {
      EngineOptions options;
      options.index = spm.get();
      Engine engine(setup.dataset.hin, options);
      const double ms = RunQuerySet(&engine, *workload, nullptr);
      std::printf("%-10s %-10s %12.1f %16s %14s\n", workload_name, "spm",
                  ms, HumanBytes(spm->MemoryBytes()).c_str(), "-");
    }
    // PM.
    {
      EngineOptions options;
      options.index = pm.get();
      Engine engine(setup.dataset.hin, options);
      const double ms = RunQuerySet(&engine, *workload, nullptr);
      std::printf("%-10s %-10s %12.1f %16s %14s\n", workload_name, "pm",
                  ms, HumanBytes(pm->MemoryBytes()).c_str(), "-");
    }
  }
  std::printf(
      "\nshape check: the cache sits between Baseline and PM at a\n"
      "fraction of PM's memory and with no build phase; its hit rate and\n"
      "advantage grow with anchor skew. Even uniform anchor workloads\n"
      "reuse hot *candidate* vertices (hub coauthors recur across\n"
      "candidate sets), which the cache captures just like SPM's\n"
      "frequency threshold would.\n");
  return 0;
}
