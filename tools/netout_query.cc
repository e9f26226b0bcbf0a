// netout_query — run outlier queries against a snapshot.
//
//   netout_query GRAPH.hin --query='FIND OUTLIERS ... TOP 10;'
//   netout_query GRAPH.hin --file=queries.txt [--pm=graph.pmidx]
//                [--spm=graph.spmidx] [--cache[=MB]] [--threads=4]
//   netout_query GRAPH.hin --query='...' --explain=VERTEX
//   netout_query GRAPH.hin --query='...' --explain-plan
//   netout_query GRAPH.hin --query='...' --progressive [--batches=10]
//   netout_query GRAPH.hin --query='...' --json
//   netout_query GRAPH.hin --query='...' --timeout-ms=500
//                [--memory-budget-mb=256] [--stop-policy=partial|error]
//
// With --file, queries (one per line) run through the batch driver as
// one shared physical plan, so duplicate sets, conditions and feature
// prefixes are computed once. --threads=N (N > 1) builds one pool of N
// workers that --query, --file and --progressive all share: every plan
// runs on the calling thread and only large operators (wide
// materializations, pairwise PathSim/CosSim scoring) fan out over it
// (ExecOptions::pool). --pm / --spm attach a pre-built index;
// --cache[=MB] attaches the dynamic LRU cache (default 64 MB),
// optionally wrapping --pm/--spm as a second tier. The cache is sharded
// and concurrency-safe, so it combines freely with --threads. --explain
// prints why the named candidate scores the way it does; --explain-plan
// prints the physical operator tree (after running the query, annotated
// with per-operator wall clock, row counts, index mode and reuse);
// --progressive streams approximate top-k snapshots with confidence
// while executing.
//
// --timeout-ms arms a per-query wall-clock deadline and
// --memory-budget-mb a per-query materialization byte budget (both
// apply per query in --file mode too, where a query that trips never
// disturbs the others). What happens on a trip is --stop-policy:
// 'partial' (default) prints a best-effort result marked DEGRADED with
// the reason, 'error' fails the query.

#include <cstdio>
#include <memory>
#include <sstream>

#include "common/binary_io.h"
#include "common/json.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "graph/io.h"
#include "index/cached_index.h"
#include "index/serialize.h"
#include "query/analyzer.h"
#include "query/batch.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/physical_plan.h"
#include "query/progressive.h"
#include "query/result_json.h"
#include "tools/tool_util.h"

namespace {

using namespace netout;

void PrintResult(const QueryResult& result) {
  std::printf("%zu candidate(s), %zu reference(s), %.2f ms "
              "(index hits %zu / misses %zu, epoch %llu)\n",
              result.stats.candidate_count, result.stats.reference_count,
              static_cast<double>(result.stats.total_nanos) / 1e6,
              result.stats.eval.index_hits,
              result.stats.eval.index_misses,
              static_cast<unsigned long long>(result.stats.graph_epoch));
  if (result.degraded) {
    std::printf("  DEGRADED (stop reason: %s) — partial best-effort "
                "result\n",
                StopReasonToString(result.stop_reason));
  }
  for (std::size_t i = 0; i < result.outliers.size(); ++i) {
    std::printf("  %2zu. %-28s %12.4f%s\n", i + 1,
                result.outliers[i].name.c_str(), result.outliers[i].score,
                result.outliers[i].zero_visibility ? "  (zero visibility)"
                                                   : "");
  }
}

/// One-line cache telemetry; rejected-too-large is the silent-refusal
/// counter (rows bigger than a shard's budget never get admitted). Goes
/// to stderr in --json mode to keep stdout machine-parseable.
void PrintCacheStats(const CachedIndex* cache, bool to_stderr) {
  if (cache == nullptr) return;
  const CachedIndex::Stats stats = cache->stats();
  std::fprintf(to_stderr ? stderr : stdout,
               "cache: %llu hits, %llu misses, %llu insertions, "
               "%llu evictions, %llu rejected-too-large, "
               "%llu invalidated, %llu stale-lookups, %llu stale-inserts\n",
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses),
               static_cast<unsigned long long>(stats.insertions),
               static_cast<unsigned long long>(stats.evictions),
               static_cast<unsigned long long>(stats.rejected_too_large),
               static_cast<unsigned long long>(stats.invalidated),
               static_cast<unsigned long long>(stats.stale_lookups),
               static_cast<unsigned long long>(stats.stale_inserts));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netout::tools;

  constexpr const char* kUsage =
      "usage: netout_query GRAPH.hin|SHARD_DIR --query='...' | "
      "--file=FILE [--pm=IDX | --spm=IDX] [--cache[=MB]] "
      "[--threads=N] [--explain=VERTEX] "
      "[--explain-plan] [--progressive [--batches=N]] [--json] "
      "[--timeout-ms=N] [--memory-budget-mb=N] "
      "[--stop-policy=partial|error] [--graph-budget-mb=N]\n";
  const Args args = ParseArgs(
      argc, argv,
      {"query", "file", "pm", "spm", "cache", "threads", "explain",
       "explain-plan", "progressive", "batches", "json", "timeout-ms",
       "memory-budget-mb", "stop-policy", "graph-budget-mb"},
      kUsage);
  if (args.positional.size() != 1 ||
      (!args.Has("query") && !args.Has("file"))) {
    std::fprintf(stderr, "%s", kUsage);
    return 1;
  }
  const HinPtr hin = LoadGraphOrDie(args.positional[0],
                                    args.GetInt("graph-budget-mb", 0));

  std::unique_ptr<PmIndex> pm;
  std::unique_ptr<SpmIndex> spm;
  std::unique_ptr<CachedIndex> cache;
  EngineOptions engine_options;
  if (args.Has("pm")) {
    pm = UnwrapOrDie(LoadPmIndex(*hin, args.Get("pm")), "load PM index");
    engine_options.index = pm.get();
  } else if (args.Has("spm")) {
    spm =
        UnwrapOrDie(LoadSpmIndex(*hin, args.Get("spm")), "load SPM index");
    engine_options.index = spm.get();
  }
  if (args.Has("cache")) {
    CachedIndex::Options cache_options;
    const long long mb = args.GetInt("cache", 64);
    if (mb > 0) {
      cache_options.capacity_bytes =
          static_cast<std::size_t>(mb) << 20;
    }
    cache = std::make_unique<CachedIndex>(engine_options.index,
                                          cache_options);
    engine_options.index = cache.get();
  }
  const std::size_t threads =
      static_cast<std::size_t>(args.GetInt("threads", 1));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  engine_options.exec.pool = pool.get();

  engine_options.exec.timeout_millis = args.GetInt("timeout-ms", -1);
  const std::int64_t budget_mb = args.GetInt("memory-budget-mb", 0);
  if (budget_mb > 0) {
    engine_options.exec.memory_budget_bytes =
        static_cast<std::size_t>(budget_mb) << 20;
  }
  const std::string stop_policy = args.Get("stop-policy", "partial");
  if (stop_policy == "partial") {
    engine_options.exec.stop_policy = StopPolicy::kPartial;
  } else if (stop_policy == "error") {
    engine_options.exec.stop_policy = StopPolicy::kError;
  } else {
    std::fprintf(stderr,
                 "error: --stop-policy must be 'partial' or 'error' "
                 "(got '%s')\n",
                 stop_policy.c_str());
    return 1;
  }

  if (args.Has("file")) {
    const std::string text =
        UnwrapOrDie(ReadFileToString(args.Get("file")), "read query file");
    std::vector<std::string> queries;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
      if (!StrTrim(line).empty()) queries.push_back(line);
    }
    BatchRunner runner(hin, engine_options);
    const auto outcomes = runner.Run(queries);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      std::printf("\n-- query %zu: %s\n", i + 1, queries[i].c_str());
      if (!outcomes[i].status.ok()) {
        // Escaped: a hostile query line can steer its own parse error
        // text, which must not fake extra output lines.
        std::printf("  error: %s\n",
                    StrEscapeControl(outcomes[i].status.ToString()).c_str());
      } else {
        PrintResult(outcomes[i].result);
      }
    }
    PrintCacheStats(cache.get(), /*to_stderr=*/false);
    PrintStorageStats(*hin, /*to_stderr=*/false);
    return 0;
  }

  const std::string query = args.Get("query");
  Engine engine(hin, engine_options);

  if (args.Has("explain")) {
    const auto explanations = UnwrapOrDie(
        engine.Explain(query, args.Get("explain")), "explain");
    for (const auto& explanation : explanations) {
      std::printf("path %s: NetOut = %.4f\n",
                  explanation.path_text.c_str(), explanation.score);
      std::printf("  distinctive (candidate over-invests):\n");
      for (const auto& term : explanation.distinctive) {
        std::printf("    %-28s candidate %.0f vs reference mass %.0f\n",
                    term.name.c_str(), term.candidate_count,
                    term.reference_mass);
      }
      std::printf("  missing (community behavior the candidate lacks):\n");
      for (const auto& term : explanation.missing) {
        std::printf("    %-28s candidate %.0f vs reference mass %.0f\n",
                    term.name.c_str(), term.candidate_count,
                    term.reference_mass);
      }
    }
    return 0;
  }

  if (args.Has("progressive")) {
    const QueryPlan plan = UnwrapOrDie(engine.Prepare(query), "prepare");
    ProgressiveOptions options;
    options.num_batches =
        static_cast<std::size_t>(args.GetInt("batches", 10));
    ProgressiveExecutor progressive(hin, engine_options.index,
                                    engine_options.exec, options);
    const QueryResult result = UnwrapOrDie(
        progressive.Run(plan,
                        [](const ProgressiveSnapshot& snapshot) {
                          std::printf("[%5.1f%%] top-1 %s  score ~%.4f  "
                                      "(stderr %.4f)%s\n",
                                      snapshot.fraction_processed * 100.0,
                                      snapshot.top.empty()
                                          ? "-"
                                          : snapshot.top[0].name.c_str(),
                                      snapshot.top.empty()
                                          ? 0.0
                                          : snapshot.top[0].score,
                                      snapshot.standard_error.empty()
                                          ? 0.0
                                          : snapshot.standard_error[0],
                                      snapshot.final ? "  [final]" : "");
                          return true;
                        }),
        "progressive run");
    std::printf("\nfinal answer:\n");
    PrintResult(result);
    PrintCacheStats(cache.get(), /*to_stderr=*/false);
    PrintStorageStats(*hin, /*to_stderr=*/false);
    return 0;
  }

  Result<QueryResult> executed = engine.Execute(query);
  if (!executed.ok() && args.Has("json")) {
    // --json promised machine-parseable stdout; keep the promise on
    // failure too with a JSON error object (message JsonEscape'd, so
    // hostile query text inside the status can't break the consumer).
    JsonWriter json;
    json.BeginObject();
    json.Key("error");
    json.BeginObject();
    json.Key("code");
    json.String(StatusCodeToString(executed.status().code()));
    json.Key("message");
    json.String(executed.status().message());
    json.EndObject();
    json.EndObject();
    std::printf("%s\n", std::move(json).Take().c_str());
    return 1;
  }
  const QueryResult result = UnwrapOrDie(std::move(executed), "execute");
  if (args.Has("explain-plan")) {
    std::printf("%s",
                RenderPlan(result.plan_ops, /*include_runtime=*/true)
                    .c_str());
    // The plan annotates index/cache behavior; sharded storage adds a
    // residency line so paging cost is visible next to operator cost.
    PrintStorageStats(*hin, /*to_stderr=*/false);
    return 0;
  }
  if (args.Has("json")) {
    std::printf("%s\n", QueryResultToJson(*hin, result, true).c_str());
  } else {
    PrintResult(result);
  }
  PrintCacheStats(cache.get(), /*to_stderr=*/args.Has("json"));
  PrintStorageStats(*hin, /*to_stderr=*/args.Has("json"));
  return 0;
}
