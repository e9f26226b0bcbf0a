#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <initializer_list>
#include <set>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "common/random.h"
#include "datagen/workload.h"

namespace perfbench {

using netout::BiblioConfig;
using netout::BiblioDataset;
using netout::LocalId;
using netout::Rng;
using netout::VertexRef;

namespace {

// Positions in the cyclic request pool, and mutations in the stream. The
// stream is never reused; it lasts a 30-second run at the highest rate
// the ladder offers.
constexpr std::size_t kPoolSize = 32768;
constexpr std::size_t kMutationStream = 40000;
constexpr std::uint64_t kRankingSeed = 0x5a697066;

/// One NDJSON request line with string members, newline included.
std::string RequestLine(
    std::initializer_list<std::pair<const char*, std::string_view>> members) {
  netout::JsonWriter json;
  json.BeginObject();
  for (const auto& [key, value] : members) {
    json.Key(key);
    json.String(value);
  }
  json.EndObject();
  std::string line = std::move(json).Take();
  line.push_back('\n');
  return line;
}

/// Anchor author sampler: uniform, or Zipf(1.1) over a fixed ranking of
/// the authors (the same ranking for queries and mutations, so writes
/// land on the authors queries read most).
class AuthorSampler {
 public:
  AuthorSampler(std::size_t num_authors, bool zipf) {
    ranked_.resize(num_authors);
    cdf_.resize(num_authors);
    double total = 0.0;
    for (std::size_t i = 0; i < num_authors; ++i) {
      ranked_[i] = static_cast<LocalId>(i);
      total += zipf ? std::pow(static_cast<double>(i + 1), -1.1) : 1.0;
      cdf_[i] = total;
    }
    for (double& value : cdf_) value /= total;
    // The popularity ranking is part of the workload, not of the seed:
    // which author is hottest decides most of a skewed run's cost, so a
    // seed-dependent ranking would make runs with different seeds
    // measure different workloads. Seeds vary the draws only.
    Rng ranking(kRankingSeed);
    ranking.Shuffle(&ranked_);
  }

  LocalId Sample(Rng* rng) const { return AtQuantile(rng->NextDouble()); }

  /// `count` anchors by systematic sampling: the quantiles (i + u) / count
  /// for one random offset u, in rank order. Every author is drawn its
  /// expected number of times, rounded up or down, so the seed changes
  /// which requests a run sees but hardly the mix of their costs.
  std::vector<LocalId> Spread(std::size_t count, Rng* rng) const {
    const double offset = rng->NextDouble();
    std::vector<LocalId> out(count);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = AtQuantile((static_cast<double>(i) + offset) /
                          static_cast<double>(count));
    }
    return out;
  }

 private:
  LocalId AtQuantile(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return ranked_[it == cdf_.end() ? ranked_.size() - 1
                                    : static_cast<std::size_t>(
                                          it - cdf_.begin())];
  }

  std::vector<LocalId> ranked_;
  std::vector<double> cdf_;  // by rank
};

/// Streaming-ingest mutations on hot authors: new papers, authorship and
/// venue/term links for recent papers, and deletes. Deletes remove the
/// oldest link the stream added once kLiveEdges of its links exist, so
/// the graph stops growing after a short warm-up: a run's later requests
/// see the same graph size as its earlier ones, however many mutations
/// the machine's speed let through. Every delete names an existing edge.
std::vector<std::string> MakeMutations(const BiblioDataset& dataset,
                                    const AuthorSampler& authors,
                                    std::uint64_t seed) {
  constexpr std::size_t kLiveEdges = 128;
  constexpr std::size_t kRecentPapers = 32;
  const netout::Hin& hin = *dataset.hin;
  Rng rng(seed ^ 0x6d75746174696f6eULL);
  std::vector<std::string> papers;
  struct Edge {
    std::string type, src, dst;
    auto operator<=>(const Edge&) const = default;
  };
  std::deque<Edge> live;  // oldest first
  std::set<Edge> live_set;
  const auto name_of = [&](netout::TypeId type) {
    return hin.VertexName(VertexRef{
        type, static_cast<LocalId>(rng.NextBounded(hin.NumVertices(type)))});
  };
  std::vector<std::string> out;
  out.reserve(kMutationStream);
  while (out.size() < kMutationStream) {
    if (papers.empty() || rng.NextBool(0.05)) {
      papers.push_back("ingest_paper_" + std::to_string(papers.size()));
      out.push_back(RequestLine(
          {{"op", "add_vertex"}, {"type", "paper"}, {"name", papers.back()}}));
      continue;
    }
    if (live.size() >= kLiveEdges) {
      const Edge& oldest = live.front();
      out.push_back(RequestLine({{"op", "delete_edge"},
                                 {"edge", oldest.type},
                                 {"src", oldest.src},
                                 {"dst", oldest.dst}}));
      live_set.erase(oldest);
      live.pop_front();
      continue;
    }
    const std::size_t recent = std::min(papers.size(), kRecentPapers);
    const std::string& paper =
        papers[papers.size() - 1 - rng.NextBounded(recent)];
    Edge edge;
    const double kind = rng.NextDouble();
    if (kind < 0.6) {
      edge = {"writes",
              hin.VertexName(
                  VertexRef{dataset.author_type, authors.Sample(&rng)}),
              paper};
    } else if (kind < 0.8) {
      edge = {"published_in", paper, name_of(dataset.venue_type)};
    } else {
      edge = {"has_term", paper, name_of(dataset.term_type)};
    }
    // A link that already exists would only gain multiplicity, and one
    // delete removes every parallel link, so live links stay unique.
    if (!live_set.insert(edge).second) continue;
    live.push_back(edge);
    out.push_back(RequestLine({{"op", "add_edge"},
                               {"edge", edge.type},
                               {"src", edge.src},
                               {"dst", edge.dst}}));
  }
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"adhoc_traverse", false, false, 0.0, false},
      {"serve_zipf", true, true, 0.0, false},
      {"serve_ingest", true, true, 0.1, false},
      {"oocore_quarter", false, false, 0.0, true},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

BiblioConfig Figure3Config() {
  BiblioConfig config;
  config.seed = 42;
  config.num_areas = 8;
  config.venues_per_area = 80;
  config.terms_per_area = 250;
  config.shared_terms = 500;
  config.authors_per_area = 700;
  config.papers_per_area = 4500;
  config.extra_terms_lambda = 7.0;
  return config;
}

Inputs MakeInputs(const BiblioDataset& dataset, const WorkloadSpec& spec,
                  std::uint64_t seed) {
  const netout::Hin& hin = *dataset.hin;
  Rng rng(seed);
  const AuthorSampler authors(hin.NumVertices(dataset.author_type), spec.zipf);
  Inputs inputs;
  inputs.queries.resize(kPoolSize);
  inputs.is_mutation.assign(kPoolSize, false);
  if (spec.served) inputs.query_lines.resize(kPoolSize);
  const auto num_queries = static_cast<std::size_t>(
      std::lround((1.0 - spec.mutation_share) * kPoolSize));
  const std::vector<LocalId> anchors = authors.Spread(num_queries, &rng);
  // Queries and mutation slots take the pool positions in a random
  // order. Consecutive anchors cycle through the templates, so each
  // author's queries are split evenly between them.
  std::vector<std::size_t> positions(kPoolSize);
  for (std::size_t p = 0; p < kPoolSize; ++p) positions[p] = p;
  rng.Shuffle(&positions);
  for (std::size_t q = num_queries; q < kPoolSize; ++q) {
    inputs.is_mutation[positions[q]] = true;
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    const std::size_t p = positions[q];
    const auto t = static_cast<netout::QueryTemplate>(q % 3);
    inputs.queries[p] = netout::InstantiateTemplate(
        t, hin.VertexName(VertexRef{dataset.author_type, anchors[q]}));
    if (spec.served) {
      inputs.query_lines[p] =
          RequestLine({{"op", "query"}, {"q", inputs.queries[p]}});
    }
  }
  if (spec.mutation_share > 0.0) {
    inputs.mutations = MakeMutations(dataset, authors, seed);
  }
  return inputs;
}

}  // namespace perfbench
