#ifndef NETOUT_BENCH_MICRO_BENCH_JSON_MAIN_H_
#define NETOUT_BENCH_MICRO_BENCH_JSON_MAIN_H_

// Drop-in replacement for BENCHMARK_MAIN() that adds the repo-wide
// `--json <path>` artifact mode (see bench/bench_json.h for the schema).
// Usage, instead of BENCHMARK_MAIN():
//
//   NETOUT_BENCH_JSON_MAIN("sparse");
//
// Every run the console reporter prints is also recorded — including
// the _mean/_median/_stddev aggregate rows under --benchmark_repetitions
// — with the per-iteration real/CPU values of the console columns,
// converted from each run's time unit (some benches report in ms) to
// the nanoseconds the artifact schema stores.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_json.h"

namespace netout::bench {

class JsonBenchReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      // Complexity fits (_BigO/_RMS rows) are not timing samples: they
      // carry zero iterations, which the schema validator rightly
      // rejects. The per-size rows they were fitted from are recorded.
      if (run.report_big_o || run.report_rms) continue;
      // The _cv aggregate is a ratio, not a time.
      if (run.aggregate_unit == ::benchmark::kPercentage) continue;
      const double to_nanos =
          1e9 / ::benchmark::GetTimeUnitMultiplier(run.time_unit);
      entries_.push_back(BenchJsonEntry{
          run.benchmark_name(), static_cast<std::int64_t>(run.iterations),
          run.GetAdjustedRealTime() * to_nanos,
          run.GetAdjustedCPUTime() * to_nanos});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<BenchJsonEntry>& entries() const { return entries_; }

 private:
  std::vector<BenchJsonEntry> entries_;
};

}  // namespace netout::bench

#define NETOUT_BENCH_JSON_MAIN(bench_name)                               \
  int main(int argc, char** argv) {                                      \
    const std::string json_path =                                        \
        netout::bench::ExtractJsonFlag(&argc, argv);                     \
    ::benchmark::Initialize(&argc, argv);                                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;  \
    netout::bench::JsonBenchReporter reporter;                           \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                      \
    ::benchmark::Shutdown();                                             \
    if (!json_path.empty() &&                                            \
        !netout::bench::WriteBenchJson(json_path, bench_name,            \
                                       reporter.entries())) {            \
      return 1;                                                          \
    }                                                                    \
    return 0;                                                            \
  }                                                                      \
  static_assert(true, "require a trailing semicolon")

#endif  // NETOUT_BENCH_MICRO_BENCH_JSON_MAIN_H_
