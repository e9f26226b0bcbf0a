// The system under test for one workload, set up only through the
// public headers of datagen, graph, index and server.
#ifndef NETOUT_PERFBENCH_SYSTEM_H_
#define NETOUT_PERFBENCH_SYSTEM_H_

#include <memory>
#include <string>
#include <thread>

#include "datagen/biblio_gen.h"
#include "graph/delta.h"
#include "index/cached_index.h"
#include "index/spm_index.h"
#include "inputs.h"
#include "server/server.h"
#include "util.h"

namespace perfbench {

/// Everything that exists before the first timed request: the graph
/// (sharded under a quarter budget for oocore_quarter), and for served
/// workloads the SPM index, the CachedIndex over it, the mutation
/// manager (serve_ingest) and a started Server on an ephemeral loopback
/// port. Destruction stops the server, then releases the graph before
/// its segment directory is removed.
class System {
 public:
  /// `scratch` is the directory under which shard directories are made.
  /// With `start_server` false a served workload gets its indexes and
  /// mutation manager but no daemon (the traced replay drives them).
  System(const WorkloadSpec& spec, const std::string& scratch,
         bool start_server);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// The in-memory graph; also the root the reference engines use.
  const netout::BiblioDataset& dataset() const { return dataset_; }
  /// The graph queries run on (the sharded copy for oocore_quarter).
  const netout::HinPtr& hin() const { return hin_; }
  /// The index queries run through: CachedIndex over SPM, or null.
  const netout::MetaPathIndex* index() const { return cache_.get(); }
  netout::SpmIndex* spm() const { return spm_.get(); }
  netout::CachedIndex* cache() const { return cache_.get(); }
  netout::MutableHin* mutable_graph() const { return graph_.get(); }
  netout::Server* server() const { return server_.get(); }

  double graph_build_s() const { return graph_build_s_; }
  double index_build_s() const { return index_build_s_; }
  double setup_s() const { return setup_s_; }

 private:
  std::unique_ptr<TempDir> shard_dir_;
  netout::BiblioDataset dataset_;
  netout::HinPtr hin_;
  std::unique_ptr<netout::SpmIndex> spm_;
  std::unique_ptr<netout::CachedIndex> cache_;
  std::unique_ptr<netout::MutableHin> graph_;
  std::unique_ptr<netout::Server> server_;
  std::thread serve_thread_;
  double graph_build_s_ = 0.0;
  double index_build_s_ = 0.0;
  double setup_s_ = 0.0;
};

}  // namespace perfbench

#endif  // NETOUT_PERFBENCH_SYSTEM_H_
