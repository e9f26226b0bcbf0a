// Single-query scaling: one FIND OUTLIERS query over every author
// (~1.5k candidates) executed without a pool (Arg 1) and with an
// ExecOptions::pool of 2/4/8 workers. The wide Materialize fans its rows
// out over the pool; the factored NetOut Score stays serial. The top-k
// answer is verified identical across pool widths at setup, so any
// speedup is free of result drift (extension beyond the paper's
// single-threaded measurements).

#include <benchmark/benchmark.h>

#include "bench/micro/bench_json_main.h"

#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "datagen/biblio_gen.h"
#include "query/engine.h"

namespace {

using namespace netout;

// The 4-step coauthor-venue path makes per-candidate materialization
// heavy enough (one BFS over coauthors' papers per author) that the
// fan-out overhead is amortized; a 2-step path finishes in microseconds
// per candidate and parallelism cannot pay for itself.
constexpr const char* kQuery =
    "FIND OUTLIERS FROM author JUDGED BY author.paper.author.paper.venue "
    "TOP 10;";

const BiblioDataset& Dataset() {
  static BiblioDataset* dataset = [] {
    BiblioConfig config;
    config.num_areas = 6;
    config.authors_per_area = 250;
    config.papers_per_area = 700;
    auto* out = new BiblioDataset(GenerateBiblio(config).value());

    // Determinism gate: every thread count must produce the exact
    // serial answer before any timing is reported.
    EngineOptions serial_options;
    Engine serial(out->hin, serial_options);
    const QueryResult reference = serial.Execute(kQuery).value();
    NETOUT_CHECK(reference.outliers.size() == 10u);
    for (std::size_t threads : {2u, 4u, 8u}) {
      ThreadPool pool(threads);
      EngineOptions options;
      options.exec.pool = &pool;
      Engine engine(out->hin, options);
      const QueryResult got = engine.Execute(kQuery).value();
      NETOUT_CHECK(got.outliers.size() == reference.outliers.size());
      for (std::size_t i = 0; i < got.outliers.size(); ++i) {
        NETOUT_CHECK(got.outliers[i].name == reference.outliers[i].name)
            << "rank " << i << " differs with a pool of " << threads;
        NETOUT_CHECK(got.outliers[i].score == reference.outliers[i].score)
            << "score at rank " << i << " differs with a pool of "
            << threads;
      }
    }
    return out;
  }();
  return *dataset;
}

void BM_SingleQuery(benchmark::State& state) {
  const BiblioDataset& dataset = Dataset();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  EngineOptions options;
  options.exec.pool = pool.get();
  Engine engine(dataset.hin, options);
  std::int64_t materialize_nanos = 0;
  std::int64_t score_nanos = 0;
  for (auto _ : state) {
    auto result = engine.Execute(kQuery).value();
    materialize_nanos += result.stats.stages.materialize_nanos;
    score_nanos += result.stats.stages.score_nanos;
    benchmark::DoNotOptimize(result);
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["materialize_ms"] =
      static_cast<double>(materialize_nanos) / 1e6 / iterations;
  state.counters["score_ms"] =
      static_cast<double>(score_nanos) / 1e6 / iterations;
}
// UseRealTime: the work happens on pool workers, so wall time (not the
// submitting thread's CPU time) is the meaningful metric.
BENCHMARK(BM_SingleQuery)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

NETOUT_BENCH_JSON_MAIN("parallel_query");
