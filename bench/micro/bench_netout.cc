// Ablation of Equation (1): the factored O(|Sr|+|Sc|) NetOut versus the
// naive O(|Sr|*|Sc|) pairwise sum, plus the LOF baseline's quadratic
// cost — the reason the paper argues classic density measures do not fit
// exploratory query workloads.

#include <benchmark/benchmark.h>

#include "bench/micro/bench_json_main.h"

#include "common/random.h"
#include "common/thread_pool.h"
#include "measure/scores.h"

namespace {

using namespace netout;

std::vector<SparseVector> RandomVectors(std::size_t count,
                                        std::size_t dimension,
                                        std::size_t nnz,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseVector> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::pair<LocalId, double>> pairs;
    for (std::size_t k = 0; k < nnz; ++k) {
      pairs.emplace_back(static_cast<LocalId>(rng.NextBounded(dimension)),
                         1.0 + static_cast<double>(rng.NextBounded(8)));
    }
    out.push_back(SparseVector::FromPairs(std::move(pairs)));
  }
  return out;
}

void BM_NetOutFactored(benchmark::State& state) {
  const std::size_t set_size = static_cast<std::size_t>(state.range(0));
  const auto vectors = RandomVectors(set_size, 2000, 24, 42);
  ScoreOptions options;
  options.use_factored = true;
  for (auto _ : state) {
    auto scores = ComputeOutlierScores(vectors, vectors, options).value();
    benchmark::DoNotOptimize(scores);
  }
  state.SetComplexityN(static_cast<std::int64_t>(set_size));
}
BENCHMARK(BM_NetOutFactored)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_NetOutNaive(benchmark::State& state) {
  const std::size_t set_size = static_cast<std::size_t>(state.range(0));
  const auto vectors = RandomVectors(set_size, 2000, 24, 42);
  ScoreOptions options;
  options.use_factored = false;
  for (auto _ : state) {
    auto scores = ComputeOutlierScores(vectors, vectors, options).value();
    benchmark::DoNotOptimize(scores);
  }
  state.SetComplexityN(static_cast<std::int64_t>(set_size));
}
BENCHMARK(BM_NetOutNaive)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

// Pairwise scoring fanned across a worker pool (ScoreOptions::pool);
// Arg = thread count. 1024 x 1024 pairs clear kMinFanOutPairs, and the
// naive quadratic form has enough work per candidate to scale close to
// linearly with the pool size. Output is bitwise-identical to the serial
// run. (Factored NetOut never fans out: a candidate costs one gather.)
void BM_NetOutNaiveParallel(benchmark::State& state) {
  const std::size_t num_threads = static_cast<std::size_t>(state.range(0));
  const auto vectors = RandomVectors(1024, 2000, 24, 42);
  ThreadPool pool(num_threads);
  ScoreOptions options;
  options.use_factored = false;
  options.pool = num_threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    auto scores = ComputeOutlierScores(vectors, vectors, options).value();
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_NetOutNaiveParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_PathSimSum(benchmark::State& state) {
  const std::size_t set_size = static_cast<std::size_t>(state.range(0));
  const auto vectors = RandomVectors(set_size, 2000, 24, 42);
  ScoreOptions options;
  options.measure = OutlierMeasure::kPathSim;
  for (auto _ : state) {
    auto scores = ComputeOutlierScores(vectors, vectors, options).value();
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_PathSimSum)->Arg(64)->Arg(256);

void BM_Lof(benchmark::State& state) {
  const std::size_t set_size = static_cast<std::size_t>(state.range(0));
  const auto vectors = RandomVectors(set_size, 2000, 24, 42);
  ScoreOptions options;
  options.measure = OutlierMeasure::kLof;
  options.lof_k = 5;
  for (auto _ : state) {
    auto scores = ComputeOutlierScores(vectors, vectors, options).value();
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_Lof)->Arg(64)->Arg(256);

}  // namespace

NETOUT_BENCH_JSON_MAIN("netout");
