#include "system.h"

#include <cstdio>
#include <vector>

#include "graph/segment.h"
#include "metapath/metapath.h"
#include "metapath/traversal.h"

namespace perfbench {

using namespace netout;

namespace {

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

/// SPM's initialization query set (Section 6.2): every possible query of
/// each Table 4 template, one per author, each contributing its
/// candidate set.
std::vector<std::vector<VertexRef>> InitializationSets(
    const BiblioDataset& dataset) {
  const HinPtr& hin = dataset.hin;
  PathCounter counter(hin);
  std::vector<std::vector<VertexRef>> sets;
  for (const char* text :
       {"author.paper.author", "author.paper.venue", "author.paper.term"}) {
    const MetaPath path =
        Unwrap(MetaPath::Parse(hin->schema(), text), "parse meta-path");
    for (LocalId a = 0; a < hin->NumVertices(dataset.author_type); ++a) {
      sets.push_back(Unwrap(
          counter.Neighborhood(VertexRef{dataset.author_type, a}, path),
          "initialization query"));
    }
  }
  return sets;
}

}  // namespace

System::System(const WorkloadSpec& spec, const std::string& scratch,
               bool start_server) {
  const std::int64_t start = NowNs();
  dataset_ = Unwrap(GenerateBiblio(Figure3Config()), "GenerateBiblio");
  hin_ = dataset_.hin;
  if (spec.sharded) {
    shard_dir_ = std::make_unique<TempDir>(scratch);
    // 64 KiB segments keep eviction granularity well below the budget.
    ShardWriterOptions writer;
    writer.target_segment_bytes = std::uint64_t{64} << 10;
    Check(BuildShardedHin(*dataset_.hin, shard_dir_->path(), writer),
          "BuildShardedHin");
    const std::uint64_t mapped =
        Unwrap(LoadShardedHin(shard_dir_->path()), "LoadShardedHin")
            ->shard_store()
            ->Stats()
            .mapped_bytes;
    ShardedOptions reader;
    reader.budget_bytes = mapped / 4;
    hin_ = Unwrap(LoadShardedHin(shard_dir_->path(), reader),
                  "LoadShardedHin");
  }
  graph_build_s_ = NsToS(NowNs() - start);

  if (spec.served) {
    const std::int64_t index_start = NowNs();
    spm_ = Unwrap(
        SpmIndex::Build(*hin_, InitializationSets(dataset_), SpmOptions{}),
        "SpmIndex::Build");
    cache_ = std::make_unique<CachedIndex>(spm_.get());
    index_build_s_ = NsToS(NowNs() - index_start);
    MutationContext mutations;
    if (spec.mutation_share > 0.0) {
      graph_ = std::make_unique<MutableHin>(hin_);
      mutations = MutationContext{graph_.get(), nullptr, spm_.get(),
                                  cache_.get()};
    }
    if (start_server) {
      EngineOptions engine;
      engine.index = cache_.get();
      ServerOptions options;
      options.num_threads = 2;
      // The rate ladder probes past the knee on purpose. Shedding
      // (tightened deadlines) and refusals would turn that probe into
      // failed answers, so admission control is set out of reach and the
      // ladder stops on latency and backlog growth instead.
      options.shed_backlog = std::size_t{1} << 20;
      options.max_backlog = std::size_t{1} << 21;
      server_ = std::make_unique<Server>(hin_, engine, options, cache_.get(),
                                         mutations);
      Check(server_->Start(), "Server::Start");
      serve_thread_ = std::thread([this] {
        const Status status = server_->Serve();
        if (!status.ok()) {
          std::fprintf(stderr, "perfbench: Serve: %s\n",
                       status.ToString().c_str());
        }
      });
    }
  }
  setup_s_ = NsToS(NowNs() - start);
}

System::~System() {
  if (server_ != nullptr) {
    server_->RequestShutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }
}

}  // namespace perfbench
