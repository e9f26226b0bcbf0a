// Regenerates the paper's Figure 4: where SPM (threshold 0.01) spends
// its query-processing time, broken into the published categories —
//   "Not indexed vectors": traversal-based materialization for vertices
//                          without pre-materialized meta-path vectors;
//   "Indexed vectors"    : looking up / combining pre-materialized rows;
//   "Outlierness calc"   : computing NetOut itself.
// The published shape: not-indexed materialization dominates on (almost)
// every query set; indexed lookups are the cheapest part. The shape
// check at the end ranks the categories by the times just measured and
// says which of these claims hold on this run (EXPERIMENTS.md records
// the deviation at the substitute network's scale).

#include <algorithm>
#include <array>
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/efficiency_common.h"
#include "index/spm_index.h"

int main(int argc, char** argv) {
  using namespace netout;
  using namespace netout::bench;
  StageRecorder recorder("fig4_breakdown", &argc, argv);

  PrintHeader("Figure 4: SPM processing-time breakdown (threshold 0.01)");
  const std::size_t queries_per_set =
      static_cast<std::size_t>(200 * BenchScale());
  EfficiencySetup setup = MakeEfficiencySetup(queries_per_set);

  std::printf("%-4s %16s %16s %16s %12s %12s\n", "set", "not-indexed(ms)",
              "indexed(ms)", "outlierness(ms)", "idx-hits", "idx-misses");

  // Per set: {not indexed, indexed, outlierness} in ms.
  constexpr std::array<const char*, 3> kCategories = {
      "not-indexed", "indexed", "outlierness"};
  std::array<std::array<double, 3>, 3> millis{};
  for (std::size_t t = 0; t < 3; ++t) {
    const QueryTemplate tmpl = kAllTemplates[t];
    SpmOptions options;
    options.relative_frequency_threshold = 0.01;
    const auto init_sets = SpmInitializationSets(setup.dataset, tmpl);
    const auto spm = Unwrap(
        SpmIndex::Build(*setup.dataset.hin, init_sets, options), "SPM");
    EngineOptions engine_options;
    engine_options.index = spm.get();
    Engine engine(setup.dataset.hin, engine_options);

    QueryExecStats total;
    const auto set_size =
        static_cast<std::int64_t>(setup.query_sets[t].size());
    const std::string set = QueryTemplateName(tmpl);
    recorder.TimeStageMillis(set + "/total", set_size, [&] {
      return RunQuerySet(&engine, setup.query_sets[t], &total);
    });
    recorder.Add(set + "/not_indexed", set_size,
                 total.eval.not_indexed.TotalMillis() * 1e6, 0.0);
    recorder.Add(set + "/indexed", set_size,
                 total.eval.indexed.TotalMillis() * 1e6, 0.0);
    recorder.Add(set + "/outlierness", set_size,
                 total.scoring.TotalMillis() * 1e6, 0.0);
    millis[t] = {total.eval.not_indexed.TotalMillis(),
                 total.eval.indexed.TotalMillis(),
                 total.scoring.TotalMillis()};
    std::printf("%-4s %16.1f %16.1f %16.1f %12zu %12zu\n",
                QueryTemplateName(tmpl),
                total.eval.not_indexed.TotalMillis(),
                total.eval.indexed.TotalMillis(),
                total.scoring.TotalMillis(), total.eval.index_hits,
                total.eval.index_misses);
  }

  // Rank the categories per set from the measured times, then test the
  // paper's three observations against the ranking.
  std::printf("\nmeasured ordering (largest first):\n");
  std::size_t not_indexed_dominates = 0;
  std::size_t indexed_least = 0;
  std::size_t outlierness_above_indexed = 0;
  for (std::size_t t = 0; t < 3; ++t) {
    std::array<std::size_t, 3> order = {0, 1, 2};
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return millis[t][a] > millis[t][b];
                     });
    std::printf("  %-4s %s > %s > %s\n", QueryTemplateName(kAllTemplates[t]),
                kCategories[order[0]], kCategories[order[1]],
                kCategories[order[2]]);
    if (order[0] == 0) ++not_indexed_dominates;
    if (order[2] == 1) ++indexed_least;
    if (millis[t][2] > millis[t][1]) ++outlierness_above_indexed;
  }
  const auto verdict = [](bool holds) {
    return holds ? "holds" : "DEVIATES (see EXPERIMENTS.md)";
  };
  std::printf(
      "\nshape check (paper):\n"
      "  'not indexed' dominates on (almost) every set: %zu/3 sets, %s\n"
      "  indexed lookups are the least time-consuming part: %zu/3 sets, "
      "%s\n"
      "  outlierness can be slower than lookups: %zu/3 sets, %s\n",
      not_indexed_dominates, verdict(not_indexed_dominates >= 2),
      indexed_least, verdict(indexed_least >= 2), outlierness_above_indexed,
      verdict(outlierness_above_indexed >= 1));
  if (!recorder.WriteIfRequested()) return 1;
  return 0;
}
