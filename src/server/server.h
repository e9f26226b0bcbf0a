#ifndef NETOUT_SERVER_SERVER_H_
#define NETOUT_SERVER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/cancellation.h"
#include "common/result.h"
#include "graph/delta.h"
#include "index/cached_index.h"
#include "index/pm_index.h"
#include "index/spm_index.h"
#include "query/engine.h"
#include "server/protocol.h"

namespace netout {

/// Everything the mutation verbs (add_vertex / add_edge / delete_edge)
/// need: the mutation manager plus the delta-maintained indexes to
/// patch after each commit. All pointers are borrowed and must outlive
/// the server; every one is optional — a null `graph` makes the server
/// read-only (mutation requests fail with kFailedPrecondition), and
/// null indexes simply skip that maintenance step (their epoch guards
/// then degrade lookups to traversal fallback, never to wrong answers).
struct MutationContext {
  MutableHin* graph = nullptr;
  PmIndex* pm = nullptr;
  SpmIndex* spm = nullptr;
  CachedIndex* cache = nullptr;
};

/// Backlog thresholds ServerOptions falls back to (see shed_backlog).
inline constexpr std::size_t kDefaultShedBacklog = 8;
inline constexpr std::size_t kDefaultMaxBacklog = 64;

/// netout_serve configuration. The server loads the HIN and indexes
/// once and keeps them resident; every connection then pays only
/// parse + plan + execute, which is what makes sustained QPS (rather
/// than per-process wall clock) the observable metric.
struct ServerOptions {
  /// Listen address. Loopback by default: the protocol is unauthenticated.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;

  /// Concurrent session cap; excess connections get one error line and
  /// an immediate close.
  std::size_t max_sessions = 256;
  /// Per-session pending-response cap; a reader slower than its own
  /// query stream is dropped instead of buffering without bound.
  std::size_t max_session_write_bytes = std::size_t{64} << 20;
  /// Request line / JSON caps (see ProtocolLimits).
  ProtocolLimits limits;

  /// Width of the server's thread pool. Each dispatched batch is
  /// lowered into one shared physical plan (cross-request CSE + shared
  /// prefixes) and run inline on the dispatcher thread; only large
  /// operators fan out over the pool (ExecOptions::pool). 1 = no pool.
  std::size_t num_threads = 2;

  /// Default & ceiling for the per-request deadline: a request's
  /// timeout_ms may lower it but never raise it past this. < 0 = no
  /// default deadline (requests may still set one).
  std::int64_t default_timeout_millis = -1;
  /// Materialization byte budget, the ceiling of every request's own
  /// budget: the one dispatcher runs one request's operators at a time,
  /// whatever the pool width. 0 = unlimited.
  std::size_t memory_budget_bytes = 0;

  /// Load shedding: once this many requests are queued ahead of the
  /// dispatcher, new queries are admitted with their deadline tightened
  /// to shed_timeout_millis and answered best-effort
  /// (StopPolicy::kPartial -> "shed": true, possibly degraded). 0 =
  /// auto (kDefaultShedBacklog). Like max_backlog, it does not scale
  /// with num_threads: the pool only widens large operators, so the
  /// rate at which the one dispatcher drains light queries stays put.
  std::size_t shed_backlog = 0;
  std::int64_t shed_timeout_millis = 250;
  /// Hard backlog cap: beyond it queries are refused outright with
  /// resource-exhausted. 0 = auto (kDefaultMaxBacklog).
  std::size_t max_backlog = 0;

  /// Whether the wire "shutdown" op is honored (tests and local tooling
  /// want it; a shared deployment may prefer signals only).
  bool allow_remote_shutdown = true;
};

/// Monotonic counters since Start(); all values are point-in-time
/// snapshots taken without stopping the world.
struct ServerStatsSnapshot {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_refused = 0;
  std::uint64_t sessions_overflowed = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t queries_ok = 0;
  std::uint64_t queries_error = 0;
  std::uint64_t queries_degraded = 0;
  std::uint64_t queries_shed = 0;
  std::uint64_t queries_refused = 0;
  std::uint64_t batches = 0;
  std::uint64_t mutations_ok = 0;
  std::uint64_t mutations_error = 0;
  std::uint64_t epochs_committed = 0;
  std::uint64_t vertices_added = 0;
  std::uint64_t vertices_deleted = 0;
  std::uint64_t edges_added = 0;
  std::uint64_t edges_deleted = 0;
  std::uint64_t index_rows_patched = 0;
  /// ApplyDelta failures after a successful commit. The epoch guards
  /// keep answers correct (the stale index degrades to traversal), but
  /// a non-zero count means the fast path is silently eroding.
  std::uint64_t index_patch_failures = 0;
  std::uint64_t graph_epoch = 0;
  /// Sharded-storage residency (segment.h); all zero when the graph is
  /// served from memory.
  bool storage_sharded = false;
  std::uint64_t storage_budget_bytes = 0;
  std::uint64_t storage_mapped_bytes = 0;
  std::uint64_t storage_resident_bytes = 0;
  std::uint64_t storage_segments = 0;
  std::uint64_t storage_resident_segments = 0;
  std::uint64_t storage_faults = 0;
  std::uint64_t storage_evictions = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t latency_count = 0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
};

/// The resident query daemon: an event-driven connection multiplexor
/// (non-blocking accept/read/write over one poll loop) speaking the
/// NDJSON protocol of server/protocol.h, dispatching parsed queries as
/// merged batches onto a BatchRunner (one shared physical plan, run
/// inline, whose large operators fan out over the server's pool), with
/// the deadline/budget/cancel machinery as per-connection admission
/// control.
///
/// Threading: Start() spawns one dispatcher thread; Serve() runs the
/// poll loop on the calling thread until shutdown. RequestShutdown()
/// is safe from any thread *and* from signal handlers (it only touches
/// a lock-free atomic and write()s the wakeup pipe) — netout_serve
/// wires SIGINT/SIGTERM to it for drain-and-exit: stop accepting, trip
/// the drain CancellationToken through every in-flight query (they
/// resolve as degraded partials), flush the responses, close, return.
///
/// Ordering: query responses come back in request order per
/// connection. Admin ops (ping/stats/config/shutdown) are answered
/// from the poll loop immediately and may overtake earlier query
/// responses still executing — correlate by "id".
///
/// Mutations: add_vertex / add_edge / delete_edge requests flow through
/// the same dispatcher queue as queries, which gives the serialization
/// the delta-maintained indexes need for free: the dispatcher splits
/// each drained batch into maximal runs of queries and runs of
/// mutations, executes query runs on the BatchRunner, folds each
/// mutation run into ONE MutableHin commit (one epoch), patches
/// PM/SPM, invalidates the cache by key, and swaps the published
/// snapshot — all before the next query run starts. Queries admitted
/// after a mutation (on any connection) therefore always see it.
class Server {
 public:
  /// `engine_options.index` (and `cache`, when the index is a
  /// CachedIndex whose stats STATS should expose) are borrowed and must
  /// outlive the server. The exec.pool member of engine_options is
  /// replaced by the server's own pool (ServerOptions::num_threads), and
  /// stop_policy / timeout / budget by its per-request admission
  /// control.
  Server(HinPtr hin, const EngineOptions& engine_options,
         const ServerOptions& options, const CachedIndex* cache = nullptr,
         const MutationContext& mutations = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens and starts the dispatcher. Fails with kIoError on
  /// socket errors (port in use, bad host).
  Status Start();

  /// Runs the poll loop until a shutdown request has fully drained.
  /// Must be preceded by Start().
  Status Serve();

  /// Begins drain-and-exit; async-signal-safe, idempotent.
  void RequestShutdown();

  /// The bound port (after Start()); useful with options.port == 0.
  std::uint16_t port() const;

  ServerStatsSnapshot stats() const;
  /// The STATS / CONFIG admin payloads (one JSON object each).
  std::string StatsJson() const;
  std::string ConfigJson() const;

  /// The server-wide drain token chained into every per-request token.
  const CancellationToken& drain_token() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace netout

#endif  // NETOUT_SERVER_SERVER_H_
