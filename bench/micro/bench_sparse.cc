// Sparse-kernel microbenchmarks: the dot product (= connectivity ψ),
// merge-add, and dense-accumulator harvest that underlie every measure
// and the materialization engine.

#include <benchmark/benchmark.h>

#include "bench/micro/bench_json_main.h"

#include "common/random.h"
#include "metapath/sparse_vector.h"

namespace {

using namespace netout;

SparseVector RandomVector(std::size_t dimension, std::size_t nnz,
                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<LocalId, double>> pairs;
  for (std::size_t i = 0; i < nnz; ++i) {
    pairs.emplace_back(static_cast<LocalId>(rng.NextBounded(dimension)),
                       rng.NextDouble() * 10.0);
  }
  return SparseVector::FromPairs(std::move(pairs));
}

void BM_Dot(benchmark::State& state) {
  const std::size_t nnz = static_cast<std::size_t>(state.range(0));
  const SparseVector a = RandomVector(nnz * 10, nnz, 1);
  const SparseVector b = RandomVector(nnz * 10, nnz, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a.View(), b.View()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nnz));
}
BENCHMARK(BM_Dot)->Arg(16)->Arg(256)->Arg(4096);

void BM_L2NormSquared(benchmark::State& state) {
  const std::size_t nnz = static_cast<std::size_t>(state.range(0));
  const SparseVector a = RandomVector(nnz * 10, nnz, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2NormSquared(a.View()));
  }
}
BENCHMARK(BM_L2NormSquared)->Arg(256)->Arg(4096);

void BM_AddScaled(benchmark::State& state) {
  const std::size_t nnz = static_cast<std::size_t>(state.range(0));
  const SparseVector a = RandomVector(nnz * 10, nnz, 4);
  const SparseVector b = RandomVector(nnz * 10, nnz, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AddScaled(a.View(), b.View(), 0.5));
  }
}
BENCHMARK(BM_AddScaled)->Arg(16)->Arg(256)->Arg(4096);

// Args: {dimension, nnz draws} (repeated draws coalesce, so slightly
// fewer slots are touched). The accumulator switches from the touched-
// list sort to the vectorized dense harvest (harvest_count /
// harvest_fill kernels) once max(8, dimension/16) slots are touched.
// The venue (640) and term (2500) pairs sit on both sides of that
// crossover; EXPERIMENTS.md has the sweep that chose it.
void BM_AccumulatorHarvest(benchmark::State& state) {
  const std::size_t dimension = static_cast<std::size_t>(state.range(0));
  const std::size_t nnz = static_cast<std::size_t>(state.range(1));
  const SparseVector a = RandomVector(dimension, nnz, 6);
  DenseAccumulator acc;
  acc.Resize(dimension);
  for (auto _ : state) {
    for (std::size_t i = 0; i < a.nnz(); ++i) {
      acc.Add(a.indices()[i], a.values()[i]);
    }
    benchmark::DoNotOptimize(acc.Harvest());
  }
}
BENCHMARK(BM_AccumulatorHarvest)
    ->Args({640, 30})       // venue, sparse regime (below 40)
    ->Args({640, 119})      // venue, dense regime
    ->Args({2500, 100})     // term, sparse regime (below 156)
    ->Args({2500, 252})     // term, dense regime
    ->Args({2560, 256})     // dense regime: ~10% occupancy
    ->Args({40960, 4096})   // dense regime at scale
    ->Args({4096, 2048})    // dense regime: half the slots touched
    ->Args({4096, 4000});   // dense regime: near-full occupancy

void BM_FromPairs(benchmark::State& state) {
  const std::size_t nnz = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::pair<LocalId, double>> pairs;
  for (std::size_t i = 0; i < nnz; ++i) {
    pairs.emplace_back(static_cast<LocalId>(rng.NextBounded(nnz * 10)),
                       1.0);
  }
  for (auto _ : state) {
    auto copy = pairs;
    benchmark::DoNotOptimize(SparseVector::FromPairs(std::move(copy)));
  }
}
BENCHMARK(BM_FromPairs)->Arg(256)->Arg(4096);

}  // namespace

NETOUT_BENCH_JSON_MAIN("sparse");
