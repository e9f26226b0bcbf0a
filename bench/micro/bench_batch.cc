// Batch driver: 64 light Q1 queries run through BatchRunner as one
// shared plan, without a pool (Arg 1) and with an ExecOptions::pool of
// 2/4/8 workers. The plan always runs inline on the calling thread and
// only operators of at least two kMinRowsPerShard-row shards fan out, so
// these serve-sized queries mostly stay on one thread: the rows measure
// the runner's per-batch cost, not core scaling (extension beyond the
// paper's single-threaded measurements).

#include <benchmark/benchmark.h>

#include "bench/micro/bench_json_main.h"

#include <memory>

#include "common/thread_pool.h"
#include "datagen/biblio_gen.h"
#include "datagen/workload.h"
#include "query/batch.h"

namespace {

using namespace netout;

struct BatchEnv {
  BiblioDataset dataset;
  std::vector<std::string> queries;
};

const BatchEnv& Env() {
  static BatchEnv* env = [] {
    auto* out = new BatchEnv();
    BiblioConfig config;
    config.num_areas = 6;
    config.authors_per_area = 200;
    config.papers_per_area = 700;
    out->dataset = GenerateBiblio(config).value();
    WorkloadConfig workload;
    workload.num_queries = 64;
    workload.seed = 99;
    out->queries = GenerateWorkload(*out->dataset.hin, "author",
                                    QueryTemplate::kQ1, workload)
                       .value();
    return out;
  }();
  return *env;
}

void BM_BatchRunner(benchmark::State& state) {
  const BatchEnv& env = Env();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  EngineOptions options;
  options.exec.pool = pool.get();
  BatchRunner runner(env.dataset.hin, options);
  for (auto _ : state) {
    auto outcomes = runner.Run(env.queries);
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(env.queries.size()));
}
// UseRealTime: work that fans out runs on pool workers, so wall time
// (not the submitting thread's CPU time) is the meaningful metric.
BENCHMARK(BM_BatchRunner)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

NETOUT_BENCH_JSON_MAIN("batch");
