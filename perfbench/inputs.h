// The benchmark's workloads and the inputs it generates for them from
// the workload seed. The program under test only ever sees these
// generated queries and mutations.
#ifndef NETOUT_PERFBENCH_INPUTS_H_
#define NETOUT_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/biblio_gen.h"
#include "graph/hin.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  /// Queries go through an in-process Server on loopback (else straight
  /// into Engine::Execute).
  bool served;
  /// Anchors follow Zipf(1.1) (else uniform).
  bool zipf;
  /// Share of requests replaced by mutations on hot authors.
  double mutation_share;
  /// The graph is read from mmapped segments under a residency budget of
  /// a quarter of the mapped bytes.
  bool sharded;
};

/// The workload named `name` (see BENCHMARK.json), or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The Figure-3 efficiency network at scale 1 (about 46k vertices and
/// 407k edges). Fixed across seeds: the seed varies the requests, so
/// runs with different seeds measure the same graph.
netout::BiblioConfig Figure3Config();

/// A cyclic pool of request positions plus a mutation stream. Request
/// lines are NDJSON with the trailing newline. Position p is either a
/// query (`queries[p]`, `query_lines[p]`) or a slot that
/// takes the next unused entry of `mutations`, so mutations are always
/// issued in stream order and each one stays valid (a delete only ever
/// names an edge an earlier mutation added).
struct Inputs {
  std::vector<std::string> queries;      // empty at mutation positions
  std::vector<std::string> query_lines;  // served workloads only
  std::vector<bool> is_mutation;
  std::vector<std::string> mutations;  // NDJSON request lines

  std::size_t size() const { return queries.size(); }
};

/// Makes the inputs of `spec` from `seed`: the same seed gives the same
/// inputs. The three Table 4 templates appear in equal shares.
Inputs MakeInputs(const netout::BiblioDataset& dataset,
                  const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench

#endif  // NETOUT_PERFBENCH_INPUTS_H_
