// netout_serve — resident query daemon over a loaded snapshot.
//
//   netout_serve GRAPH.hin|SHARD_DIR [--pm=IDX | --spm=IDX]
//                [--cache[=MB]] [--host=127.0.0.1] [--port=0]
//                [--threads=2] [--timeout-ms=N]
//                [--memory-budget-mb=N] [--graph-budget-mb=N]
//                [--max-sessions=N] [--shed-backlog=N]
//                [--shed-timeout-ms=N] [--max-backlog=N]
//                [--no-remote-shutdown] [--read-only]
//
// Loads the HIN and indexes once, binds HOST:PORT (port 0 = ephemeral;
// the bound port is announced on stdout as "listening on HOST:PORT")
// and serves the NDJSON protocol of src/server/protocol.h until a
// drain: SIGINT/SIGTERM, or a wire "shutdown" request. --timeout-ms and
// --memory-budget-mb are server-wide admission-control ceilings — a
// request's own timeout_ms / memory_budget_mb may lower them, never
// raise them. Each dispatched batch of requests runs as one shared
// physical plan (cross-request plan merging).
//
// Signals: SIGPIPE is ignored process-wide (a peer vanishing mid-write
// must surface as an EPIPE on that one session, not kill the daemon);
// SIGINT/SIGTERM trip the server's drain token, so in-flight queries
// resolve as degraded partials, responses flush, and the process exits
// cleanly.
//
// Mutations: by default the daemon accepts the add_vertex / add_edge /
// delete_edge verbs — each commit publishes a new graph epoch, the
// loaded PM/SPM indexes are delta-patched, and the cache is invalidated
// by key, so streaming ingest and queries interleave on one daemon.
// --read-only disables the mutation verbs (kFailedPrecondition).
// Mutations live in the serving process only; flatten-and-save is a
// separate offline step (the on-disk GRAPH.hin is never touched).
//
// The positional graph may also be a netout_shard directory, served
// out-of-core through mmap-paged segments; --graph-budget-mb caps the
// resident segment bytes (STATS reports residency and fault/eviction
// counters under "storage").

#include <csignal>
#include <cstdio>

#include "graph/io.h"
#include "index/cached_index.h"
#include "index/serialize.h"
#include "query/engine.h"
#include "server/server.h"
#include "tools/tool_util.h"

namespace {

// Written once before signals are installed, read by the handler.
netout::Server* g_server = nullptr;

extern "C" void HandleTerminate(int) {
  // Async-signal-safe: RequestShutdown only stores an atomic and
  // write()s the wakeup pipe.
  if (g_server != nullptr) g_server->RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netout;
  using namespace netout::tools;

  constexpr const char* kUsage =
      "usage: netout_serve GRAPH.hin|SHARD_DIR [--pm=IDX | --spm=IDX] "
      "[--cache[=MB]] [--host=ADDR] [--port=N] [--threads=N] "
      "[--timeout-ms=N] [--memory-budget-mb=N] "
      "[--graph-budget-mb=N] [--max-sessions=N] [--shed-backlog=N] "
      "[--shed-timeout-ms=N] [--max-backlog=N] [--no-remote-shutdown] "
      "[--read-only]\n";
  const Args args = ParseArgs(
      argc, argv,
      {"pm", "spm", "cache", "host", "port", "threads", "timeout-ms",
       "memory-budget-mb", "graph-budget-mb", "max-sessions",
       "shed-backlog", "shed-timeout-ms", "max-backlog",
       "no-remote-shutdown", "read-only"},
      kUsage);
  if (args.positional.size() != 1) {
    std::fprintf(stderr, "%s", kUsage);
    return 1;
  }

  const HinPtr hin = LoadGraphOrDie(args.positional[0],
                                    args.GetInt("graph-budget-mb", 0));

  std::unique_ptr<PmIndex> pm;
  std::unique_ptr<SpmIndex> spm;
  std::unique_ptr<CachedIndex> cache;
  EngineOptions engine_options;
  if (args.Has("pm")) {
    pm = UnwrapOrDie(LoadPmIndex(*hin, args.Get("pm")), "load PM index");
    engine_options.index = pm.get();
  } else if (args.Has("spm")) {
    spm = UnwrapOrDie(LoadSpmIndex(*hin, args.Get("spm")), "load SPM index");
    engine_options.index = spm.get();
  }
  if (args.Has("cache")) {
    CachedIndex::Options cache_options;
    const std::int64_t mb = args.GetInt("cache", 64);
    if (mb > 0) {
      cache_options.capacity_bytes = static_cast<std::size_t>(mb) << 20;
    }
    cache =
        std::make_unique<CachedIndex>(engine_options.index, cache_options);
    engine_options.index = cache.get();
  }

  ServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(args.GetInt("port", 0));
  options.num_threads = static_cast<std::size_t>(args.GetInt("threads", 2));
  options.default_timeout_millis = args.GetInt("timeout-ms", -1);
  const std::int64_t budget_mb = args.GetInt("memory-budget-mb", 0);
  if (budget_mb > 0) {
    options.memory_budget_bytes = static_cast<std::size_t>(budget_mb) << 20;
  }
  options.max_sessions =
      static_cast<std::size_t>(args.GetInt("max-sessions", 256));
  options.shed_backlog =
      static_cast<std::size_t>(args.GetInt("shed-backlog", 0));
  options.shed_timeout_millis = args.GetInt("shed-timeout-ms", 250);
  options.max_backlog =
      static_cast<std::size_t>(args.GetInt("max-backlog", 0));
  options.allow_remote_shutdown = !args.Has("no-remote-shutdown");

  // The mutation manager wants the root graph; MutationContext wires it
  // to the loaded indexes so commits keep them delta-patched.
  std::unique_ptr<MutableHin> mutable_hin;
  MutationContext mutations;
  if (!args.Has("read-only")) {
    mutable_hin = std::make_unique<MutableHin>(hin);
    mutations.graph = mutable_hin.get();
    mutations.pm = pm.get();
    mutations.spm = spm.get();
    mutations.cache = cache.get();
  }

  Server server(hin, engine_options, options, cache.get(), mutations);
  CheckOk(server.Start(), "start server");

  g_server = &server;
  // SIGPIPE would otherwise kill the process on any write to a
  // half-closed socket; the write path handles EPIPE per session.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction action;
  action.sa_handler = HandleTerminate;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll() must wake on the signal
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  // Announced on stdout (and flushed) so scripts binding port 0 can
  // discover the ephemeral port.
  std::printf("listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  CheckOk(server.Serve(), "serve");

  const ServerStatsSnapshot stats = server.stats();
  std::fprintf(stderr,
               "drained: %llu queries ok, %llu error, %llu degraded, "
               "%llu sessions served\n",
               static_cast<unsigned long long>(stats.queries_ok),
               static_cast<unsigned long long>(stats.queries_error),
               static_cast<unsigned long long>(stats.queries_degraded),
               static_cast<unsigned long long>(stats.sessions_opened));
  return 0;
}
