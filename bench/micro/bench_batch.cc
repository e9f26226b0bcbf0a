// Batch-driver scaling: the same query set executed through BatchRunner
// with 1..8 workers (1 runs the shared plan inline on the calling
// thread; more schedule its ops over a pool). The Q1 queries share
// little beyond their sets and the Hin/index are immutable, so
// throughput should scale with cores until memory bandwidth saturates
// (extension beyond the paper's single-threaded measurements).

#include <benchmark/benchmark.h>

#include "bench/micro/bench_json_main.h"

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
  BatchRunner runner(env.dataset.hin, EngineOptions{},
                     static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto outcomes = runner.Run(env.queries);
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(env.queries.size()));
}
// UseRealTime: the work happens on pool workers, so wall time (not the
// submitting thread's CPU time) is the meaningful metric.
BENCHMARK(BM_BatchRunner)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

NETOUT_BENCH_JSON_MAIN("batch");
