#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "graph/delta.h"
#include "graph/segment.h"
#include "index/incremental.h"
#include "query/batch.h"

namespace netout {
namespace {

using Clock = std::chrono::steady_clock;

Status ErrnoStatus(std::string_view what) {
  return Status::IoError(std::string(what) + ": " +
                         std::strerror(errno));
}

double NanosToMillis(std::uint64_t nanos) {
  return static_cast<double>(nanos) / 1e6;
}

/// Lock-free latency histogram over power-of-two nanosecond buckets.
/// Quantiles report the geometric midpoint of the winning bucket, so
/// p99 is accurate to a factor of sqrt(2) — plenty for load shedding
/// and bench sanity, with zero contention on the hot path.
struct LatencyHistogram {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_nanos{0};
  std::atomic<std::uint64_t> max_nanos{0};
  std::atomic<std::uint64_t> buckets[64] = {};

  void Record(std::uint64_t nanos) {
    count.fetch_add(1, std::memory_order_relaxed);
    total_nanos.fetch_add(nanos, std::memory_order_relaxed);
    std::uint64_t seen = max_nanos.load(std::memory_order_relaxed);
    while (nanos > seen &&
           !max_nanos.compare_exchange_weak(seen, nanos,
                                            std::memory_order_relaxed)) {
    }
    const int bucket = std::bit_width(nanos | 1) - 1;
    buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  double QuantileMillis(double q) const {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    if (n == 0) return 0.0;
    const std::uint64_t target =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * n + 0.5));
    std::uint64_t seen = 0;
    for (int i = 0; i < 64; ++i) {
      seen += buckets[i].load(std::memory_order_relaxed);
      if (seen >= target) {
        return NanosToMillis((std::uint64_t{1} << i) +
                             ((std::uint64_t{1} << i) >> 1));
      }
    }
    return NanosToMillis(max_nanos.load(std::memory_order_relaxed));
  }
};

struct Counters {
  std::atomic<std::uint64_t> sessions_opened{0};
  std::atomic<std::uint64_t> sessions_closed{0};
  std::atomic<std::uint64_t> sessions_refused{0};
  std::atomic<std::uint64_t> sessions_overflowed{0};
  std::atomic<std::uint64_t> requests_received{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> queries_ok{0};
  std::atomic<std::uint64_t> queries_error{0};
  std::atomic<std::uint64_t> queries_degraded{0};
  std::atomic<std::uint64_t> queries_shed{0};
  std::atomic<std::uint64_t> queries_refused{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> mutations_ok{0};
  std::atomic<std::uint64_t> mutations_error{0};
  std::atomic<std::uint64_t> epochs_committed{0};
  std::atomic<std::uint64_t> vertices_added{0};
  std::atomic<std::uint64_t> vertices_deleted{0};
  std::atomic<std::uint64_t> edges_added{0};
  std::atomic<std::uint64_t> edges_deleted{0};
  std::atomic<std::uint64_t> index_rows_patched{0};
  std::atomic<std::uint64_t> index_patch_failures{0};
  std::atomic<std::uint64_t> graph_epoch{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};
  // Aggregated engine stats across finished queries.
  std::atomic<std::uint64_t> plan_ops_executed{0};
  std::atomic<std::uint64_t> vectors_materialized{0};
  std::atomic<std::uint64_t> vectors_reused{0};
  LatencyHistogram latency;
};

}  // namespace

struct Server::Impl {
  /// One connected client. Owned by the poll loop; the dispatcher never
  /// touches a Session (it addresses completions by session id, and the
  /// poll loop resolves the id — or drops the payload if the session
  /// died first).
  struct Session {
    int fd = -1;
    std::uint64_t id = 0;
    LineAssembler lines;
    std::string out;             // pending response bytes
    std::size_t out_offset = 0;  // already-flushed prefix of `out`
    std::size_t inflight = 0;    // queries handed to the dispatcher
    bool read_closed = false;
    bool close_after_flush = false;
    bool dead = false;  // fatal I/O or overflow; reaped by SweepClosable

    explicit Session(std::size_t max_line_bytes) : lines(max_line_bytes) {}
  };

  /// A query admitted by the poll loop, waiting for the dispatcher. The
  /// token is heap-owned here because BatchRunner borrows it for the
  /// whole Run call.
  struct PendingRequest {
    std::uint64_t session_id = 0;
    Request request;
    bool shed = false;
    std::unique_ptr<CancellationToken> token;
    Clock::time_point received;
  };

  struct Completion {
    std::uint64_t session_id = 0;
    std::string payload;
  };

  /// The published snapshot queries run against. Written only by the
  /// dispatcher (epoch publication after a commit) but read by the poll
  /// thread too (ConfigJson), hence the mutex; the dispatcher reads its
  /// own writes so a per-segment copy is all it ever locks for.
  mutable Mutex snapshot_mutex;
  HinPtr hin NETOUT_GUARDED_BY(snapshot_mutex);
  EngineOptions engine_options;
  ServerOptions options;
  const CachedIndex* cache = nullptr;
  MutationContext mutations;

  // The one pool large operators fan out over; null for one thread.
  // Declared before the runner, which borrows it.
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<BatchRunner> runner;
  CancellationToken drain_token;

  int listen_fd = -1;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  std::uint16_t bound_port = 0;
  bool started = false;

  std::atomic<bool> shutdown_requested{false};
  bool draining = false;
  Clock::time_point drain_started;

  std::unordered_map<int, std::unique_ptr<Session>> sessions_by_fd;
  std::unordered_map<std::uint64_t, Session*> sessions_by_id;
  std::uint64_t next_session_id = 1;

  // Poll loop -> dispatcher handoff. dispatch_mutex and
  // completion_mutex are never held together (DESIGN.md §12): requests
  // cross under dispatch_mutex, responses cross back under
  // completion_mutex, and all other session state is poll-thread-only.
  Mutex dispatch_mutex;
  CondVar dispatch_cv;
  std::deque<PendingRequest> pending NETOUT_GUARDED_BY(dispatch_mutex);
  bool dispatcher_stop NETOUT_GUARDED_BY(dispatch_mutex) = false;
  std::thread dispatcher;

  Mutex completion_mutex;
  std::vector<Completion> completions NETOUT_GUARDED_BY(completion_mutex);

  Counters counters;
  Clock::time_point start_time;

  std::size_t shed_backlog_effective = 0;
  std::size_t max_backlog_effective = 0;

  ~Impl() { Cleanup(); }

  HinPtr CurrentSnapshot() const NETOUT_EXCLUDES(snapshot_mutex) {
    MutexLock lock(snapshot_mutex);
    return hin;
  }

  void Cleanup() NETOUT_EXCLUDES(dispatch_mutex) {
    StopDispatcher();
    for (auto& [fd, session] : sessions_by_fd) ::close(fd);
    sessions_by_fd.clear();
    sessions_by_id.clear();
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    if (wake_read_fd >= 0) {
      ::close(wake_read_fd);
      wake_read_fd = -1;
    }
    if (wake_write_fd >= 0) {
      ::close(wake_write_fd);
      wake_write_fd = -1;
    }
  }

  void StopDispatcher() NETOUT_EXCLUDES(dispatch_mutex) {
    {
      MutexLock lock(dispatch_mutex);
      dispatcher_stop = true;
    }
    dispatch_cv.NotifyAll();
    if (dispatcher.joinable()) dispatcher.join();
  }

  // ---------------------------------------------------------------
  // Startup

  Status Start() {
    if (started) return Status::FailedPrecondition("server already started");

    shed_backlog_effective = options.shed_backlog != 0
                                 ? options.shed_backlog
                                 : kDefaultShedBacklog;
    max_backlog_effective = options.max_backlog != 0
                                ? options.max_backlog
                                : kDefaultMaxBacklog;
    if (max_backlog_effective < shed_backlog_effective) {
      max_backlog_effective = shed_backlog_effective;
    }

    // Per-request admission control replaces the engine-wide limits:
    // limits flow through the chained request tokens only, so two
    // sessions with different deadlines coexist in one merged batch.
    if (options.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(options.num_threads);
    }
    engine_options.exec.pool = pool.get();
    engine_options.exec.stop_policy = StopPolicy::kPartial;
    engine_options.exec.timeout_millis = -1;
    engine_options.exec.memory_budget_bytes = 0;
    runner = std::make_unique<BatchRunner>(CurrentSnapshot(), engine_options);

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
      return ErrnoStatus("pipe2");
    }
    wake_read_fd = pipe_fds[0];
    wake_write_fd = pipe_fds[1];

    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) return ErrnoStatus("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad listen address '" + options.host +
                                     "'");
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return ErrnoStatus("bind " + options.host + ":" +
                         std::to_string(options.port));
    }
    if (::listen(listen_fd, 128) != 0) return ErrnoStatus("listen");

    sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0) {
      return ErrnoStatus("getsockname");
    }
    bound_port = ntohs(bound.sin_port);

    start_time = Clock::now();
    dispatcher = std::thread([this] { DispatcherLoop(); });
    started = true;
    return Status::OK();
  }

  // ---------------------------------------------------------------
  // Dispatcher thread: drains the pending queue as one batch per pass,
  // so natural batching emerges under load (the deeper the backlog, the
  // more cross-request sharing the merged plan gets).

  void DispatcherLoop() NETOUT_EXCLUDES(dispatch_mutex, completion_mutex) {
    for (;;) {
      std::vector<PendingRequest> batch;
      {
        MutexLock lock(dispatch_mutex);
        while (!dispatcher_stop && pending.empty()) {
          dispatch_cv.Wait(dispatch_mutex);
        }
        if (pending.empty()) {
          if (dispatcher_stop) return;
          continue;
        }
        batch.reserve(pending.size());
        while (!pending.empty()) {
          batch.push_back(std::move(pending.front()));
          pending.pop_front();
        }
      }
      counters.batches.fetch_add(1, std::memory_order_relaxed);

      // Segment the drained batch into maximal runs of queries and runs
      // of mutations, preserving order. A query run executes against
      // one snapshot; a mutation run becomes one commit (one epoch)
      // published before the next query run — the serialization the
      // delta-maintained indexes require, with zero extra locking.
      std::vector<Completion> done;
      done.reserve(batch.size());
      std::size_t begin = 0;
      while (begin < batch.size()) {
        const bool mutation = IsMutationOp(batch[begin].request.op);
        std::size_t end = begin;
        while (end < batch.size() &&
               IsMutationOp(batch[end].request.op) == mutation) {
          ++end;
        }
        if (mutation) {
          RunMutationSegment(batch, begin, end, &done);
        } else {
          RunQuerySegment(batch, begin, end, &done);
        }
        begin = end;
      }
      {
        MutexLock lock(completion_mutex);
        completions.insert(completions.end(),
                           std::make_move_iterator(done.begin()),
                           std::make_move_iterator(done.end()));
      }
      Wake();
    }
  }

  void RunQuerySegment(std::vector<PendingRequest>& batch, std::size_t begin,
                       std::size_t end, std::vector<Completion>* done)
      NETOUT_EXCLUDES(snapshot_mutex) {
    const HinPtr snapshot = CurrentSnapshot();
    std::vector<BatchQuery> queries;
    queries.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      queries.push_back(BatchQuery{batch[i].request.query,
                                   batch[i].token.get()});
    }
    std::vector<BatchOutcome> outcomes = runner->Run(queries);

    const Clock::time_point now = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      PendingRequest& request = batch[i];
      BatchOutcome& outcome = outcomes[i - begin];
      const std::uint64_t latency_nanos = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - request.received)
              .count());
      counters.latency.Record(latency_nanos);

      Completion completion;
      completion.session_id = request.session_id;
      if (outcome.status.ok()) {
        counters.queries_ok.fetch_add(1, std::memory_order_relaxed);
        if (outcome.result.degraded) {
          counters.queries_degraded.fetch_add(1, std::memory_order_relaxed);
        }
        if (request.shed) {
          counters.queries_shed.fetch_add(1, std::memory_order_relaxed);
        }
        counters.plan_ops_executed.fetch_add(
            outcome.result.plan_ops.size(), std::memory_order_relaxed);
        counters.vectors_materialized.fetch_add(
            outcome.result.stats.vectors_materialized,
            std::memory_order_relaxed);
        counters.vectors_reused.fetch_add(
            outcome.result.stats.vectors_reused, std::memory_order_relaxed);
        completion.payload = BuildQueryResponse(
            *snapshot, request.request, outcome.result, request.shed,
            NanosToMillis(latency_nanos));
      } else {
        counters.queries_error.fetch_add(1, std::memory_order_relaxed);
        completion.payload =
            BuildErrorResponse(&request.request, outcome.status);
      }
      done->push_back(std::move(completion));
    }
  }

  Status StageMutation(const Request& request) {
    switch (request.op) {
      case RequestOp::kAddVertex:
        return mutations.graph
            ->AddVertex(request.vertex_type, request.vertex_name)
            .status();
      case RequestOp::kAddEdge:
        return mutations.graph->AddEdge(
            request.edge_type, request.src_name, request.dst_name,
            static_cast<std::uint32_t>(request.count),
            /*create_vertices=*/true);
      case RequestOp::kDeleteEdge:
        return mutations.graph->DeleteEdge(request.edge_type,
                                           request.src_name,
                                           request.dst_name);
      default:
        return Status::Internal("not a mutation op");
    }
  }

  void RunMutationSegment(std::vector<PendingRequest>& batch,
                          std::size_t begin, std::size_t end,
                          std::vector<Completion>* done)
      NETOUT_EXCLUDES(snapshot_mutex) {
    // Stage every op eagerly (bad ops are rejected individually and
    // never staged), then fold the survivors into one commit.
    std::vector<Status> staged(end - begin);
    bool any_staged = false;
    for (std::size_t i = begin; i < end; ++i) {
      staged[i - begin] = StageMutation(batch[i].request);
      any_staged |= staged[i - begin].ok();
    }

    Status commit_failure;
    std::uint64_t epoch = 0;
    if (any_staged) {
      Result<CommitResult> committed = mutations.graph->Commit();
      if (committed.ok()) {
        epoch = committed.value().snapshot.epoch;
        PublishSnapshot(committed.value());
      } else {
        commit_failure = committed.status();
      }
    }

    const Clock::time_point now = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      PendingRequest& request = batch[i];
      counters.latency.Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - request.received)
              .count()));
      Completion completion;
      completion.session_id = request.session_id;
      const Status& failure =
          staged[i - begin].ok() ? commit_failure : staged[i - begin];
      if (failure.ok()) {
        counters.mutations_ok.fetch_add(1, std::memory_order_relaxed);
        completion.payload = BuildMutationResponse(request.request, epoch);
      } else {
        counters.mutations_error.fetch_add(1, std::memory_order_relaxed);
        completion.payload = BuildErrorResponse(&request.request, failure);
      }
      done->push_back(std::move(completion));
    }
  }

  /// Publishes a committed epoch: patches the delta-maintained indexes,
  /// invalidates affected cache rows, and swaps the snapshot the next
  /// query segment (and admin payloads) will see. Runs on the
  /// dispatcher thread between segments, which is exactly the
  /// no-concurrent-index-readers window ApplyDelta requires.
  void PublishSnapshot(const CommitResult& committed)
      NETOUT_EXCLUDES(snapshot_mutex) {
    const Hin& after = *committed.snapshot.hin;
    const AffectedRows affected =
        AffectedTwoStepRows(after, committed.summary);
    std::uint64_t patched = 0;
    if (mutations.pm != nullptr) {
      const std::uint64_t before = mutations.pm->rows_patched();
      if (!mutations.pm->ApplyDelta(after, affected).ok()) {
        // The PM epoch stays behind, so its LookupAt guard routes
        // readers to traversal fallback — slower, never wrong.
        counters.index_patch_failures.fetch_add(1, std::memory_order_relaxed);
      }
      patched += mutations.pm->rows_patched() - before;
    }
    if (mutations.spm != nullptr) {
      const std::uint64_t before = mutations.spm->rows_patched();
      if (!mutations.spm->ApplyDelta(after, affected).ok()) {
        counters.index_patch_failures.fetch_add(1, std::memory_order_relaxed);
      }
      patched += mutations.spm->rows_patched() - before;
    }
    if (mutations.cache != nullptr) {
      mutations.cache->BeginEpoch(committed.snapshot.epoch, affected);
    }
    runner->SetSnapshot(committed.snapshot.hin);
    {
      MutexLock lock(snapshot_mutex);
      hin = committed.snapshot.hin;
    }
    counters.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    counters.graph_epoch.store(committed.snapshot.epoch,
                               std::memory_order_relaxed);
    counters.vertices_added.fetch_add(committed.summary.added_vertices.size(),
                                      std::memory_order_relaxed);
    counters.vertices_deleted.fetch_add(committed.summary.vertices_deleted,
                                        std::memory_order_relaxed);
    counters.edges_added.fetch_add(committed.summary.edges_added,
                                   std::memory_order_relaxed);
    counters.edges_deleted.fetch_add(committed.summary.edges_deleted,
                                     std::memory_order_relaxed);
    counters.index_rows_patched.fetch_add(patched, std::memory_order_relaxed);
  }

  /// Async-signal-safe: one atomic store + one write(). The poll loop
  /// wakes on the pipe byte; a full pipe is fine, the wakeup is level
  /// semantics (something already pending).
  void Wake() {
    const char byte = 0;
    [[maybe_unused]] ssize_t rc = ::write(wake_write_fd, &byte, 1);
  }

  void RequestShutdown() {
    shutdown_requested.store(true, std::memory_order_release);
    Wake();
  }

  // ---------------------------------------------------------------
  // Poll loop

  Status Serve() NETOUT_EXCLUDES(dispatch_mutex, completion_mutex) {
    if (!started) {
      return Status::FailedPrecondition("Serve() requires Start()");
    }
    std::vector<pollfd> fds;
    std::vector<int> session_fds;
    std::vector<std::uint64_t> session_ids;
    for (;;) {
      fds.clear();
      session_fds.clear();
      session_ids.clear();
      fds.push_back(pollfd{wake_read_fd, POLLIN, 0});
      const bool accepting = listen_fd >= 0;
      if (accepting) fds.push_back(pollfd{listen_fd, POLLIN, 0});
      for (const auto& [fd, session] : sessions_by_fd) {
        short events = 0;
        if (!session->read_closed && !session->close_after_flush) {
          events |= POLLIN;
        }
        if (session->out_offset < session->out.size()) events |= POLLOUT;
        fds.push_back(pollfd{fd, events, 0});
        session_fds.push_back(fd);
        session_ids.push_back(session->id);
      }

      const int rc = ::poll(fds.data(), fds.size(), /*timeout_ms=*/200);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("poll");
      }

      if (fds[0].revents != 0) DrainWakePipe();
      if (shutdown_requested.load(std::memory_order_acquire) && !draining) {
        BeginDrain();
      }
      DeliverCompletions();
      if (accepting && listen_fd >= 0 && fds[1].revents != 0) AcceptNew();

      const std::size_t base = accepting ? 2 : 1;
      for (std::size_t i = 0; i < session_fds.size(); ++i) {
        const int fd = session_fds[i];
        const short revents = fds[base + i].revents;
        if (revents == 0) continue;
        auto it = sessions_by_fd.find(fd);
        if (it == sessions_by_fd.end()) continue;  // closed this pass
        // An fd number can be reused within one pass (close + accept);
        // the id check keeps a dead connection's revents from landing
        // on the newcomer.
        if (it->second->id != session_ids[i]) continue;
        HandleSessionEvents(it->second.get(), revents);
      }

      SweepClosable();

      if (draining) {
        // Grace period: a drain must terminate even when a peer never
        // reads its final responses.
        const bool expired =
            Clock::now() - drain_started > std::chrono::seconds(5);
        if (expired) ForceCloseAll();
        if (sessions_by_fd.empty()) break;
      }
    }
    StopDispatcher();
    // Late completions have no readers anymore; drop them.
    {
      MutexLock lock(completion_mutex);
      completions.clear();
    }
    return Status::OK();
  }

  void DrainWakePipe() {
    char buf[256];
    while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
    }
  }

  void BeginDrain() NETOUT_EXCLUDES(dispatch_mutex) {
    draining = true;
    drain_started = Clock::now();
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    // In-flight queries resolve as degraded partials (kPartial policy);
    // queued-but-unstarted ones resolve immediately the same way.
    drain_token.RequestCancel();
    {
      MutexLock lock(dispatch_mutex);
      dispatcher_stop = true;
    }
    dispatch_cv.NotifyAll();
  }

  void AcceptNew() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or transient accept error: retry next pass
      }
      if (sessions_by_fd.size() >= options.max_sessions) {
        counters.sessions_refused.fetch_add(1, std::memory_order_relaxed);
        const std::string refusal = BuildErrorResponse(
            nullptr,
            Status::ResourceExhausted("session limit reached (" +
                                      std::to_string(options.max_sessions) +
                                      ")"));
        // Best effort: the peer is being dropped either way.
        [[maybe_unused]] ssize_t rc =
            ::send(fd, refusal.data(), refusal.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto session = std::make_unique<Session>(options.limits.max_line_bytes);
      session->fd = fd;
      session->id = next_session_id++;
      sessions_by_id[session->id] = session.get();
      sessions_by_fd[fd] = std::move(session);
      counters.sessions_opened.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void HandleSessionEvents(Session* session, short revents) {
    if ((revents & (POLLERR | POLLNVAL)) != 0) {
      AbortSession(session);
      return;
    }
    if ((revents & (POLLIN | POLLHUP)) != 0 && !session->read_closed) {
      if (!ReadFromSession(session)) return;  // session aborted
    }
    if ((revents & POLLOUT) != 0) {
      if (!FlushWrites(session)) return;
    }
  }

  /// Returns false when the session was aborted.
  bool ReadFromSession(Session* session) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        counters.bytes_read.fetch_add(static_cast<std::uint64_t>(n),
                                      std::memory_order_relaxed);
        Status appended =
            session->lines.Append(std::string_view(buf, static_cast<std::size_t>(n)));
        if (!appended.ok()) {
          // Line overflow: framing is unrecoverable. One error line,
          // then close.
          counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          counters.sessions_overflowed.fetch_add(1, std::memory_order_relaxed);
          Enqueue(session, BuildErrorResponse(nullptr, appended));
          session->read_closed = true;
          session->close_after_flush = true;
          return true;
        }
        std::string line;
        while (session->lines.NextLine(&line)) {
          HandleLine(session, line);
          if (session->close_after_flush) break;
        }
        if (session->close_after_flush) return true;
        continue;
      }
      if (n == 0) {  // half-close: finish in-flight work, then close
        session->read_closed = true;
        return true;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      AbortSession(session);
      return false;
    }
  }

  void HandleLine(Session* session, const std::string& line) {
    counters.requests_received.fetch_add(1, std::memory_order_relaxed);
    Result<Request> parsed = ParseRequest(line, options.limits);
    if (!parsed.ok()) {
      // Framing is still intact (the line terminated), so the session
      // survives a malformed request.
      counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      Enqueue(session, BuildErrorResponse(nullptr, parsed.status()));
      return;
    }
    Request request = std::move(parsed).value();
    switch (request.op) {
      case RequestOp::kPing:
        Enqueue(session, BuildPingResponse(request));
        return;
      case RequestOp::kStats:
        Enqueue(session, BuildObjectResponse(request, "stats", StatsJson()));
        return;
      case RequestOp::kConfig:
        Enqueue(session, BuildObjectResponse(request, "config", ConfigJson()));
        return;
      case RequestOp::kShutdown:
        if (!options.allow_remote_shutdown) {
          Enqueue(session,
                  BuildErrorResponse(&request, Status::FailedPrecondition(
                                                   "remote shutdown disabled")));
          return;
        }
        Enqueue(session, BuildObjectResponse(request, "draining", "true"));
        shutdown_requested.store(true, std::memory_order_release);
        return;
      case RequestOp::kQuery:
        AdmitQuery(session, std::move(request));
        return;
      case RequestOp::kAddVertex:
      case RequestOp::kAddEdge:
      case RequestOp::kDeleteEdge:
        AdmitMutation(session, std::move(request));
        return;
    }
  }

  /// Mutations ride the dispatcher queue like queries (that ordering IS
  /// the consistency story) but carry no control token: a commit is
  /// quick, all-or-nothing, and must never be half-cancelled.
  void AdmitMutation(Session* session, Request request)
      NETOUT_EXCLUDES(dispatch_mutex) {
    if (mutations.graph == nullptr) {
      counters.mutations_error.fetch_add(1, std::memory_order_relaxed);
      Enqueue(session,
              BuildErrorResponse(
                  &request, Status::FailedPrecondition(
                                "server is read-only (started without a "
                                "mutation context)")));
      return;
    }
    if (draining) {
      counters.mutations_error.fetch_add(1, std::memory_order_relaxed);
      Enqueue(session, BuildErrorResponse(
                           &request,
                           Status::FailedPrecondition("server is draining")));
      return;
    }
    std::size_t backlog;
    {
      MutexLock lock(dispatch_mutex);
      backlog = pending.size();
    }
    if (backlog >= max_backlog_effective) {
      counters.mutations_error.fetch_add(1, std::memory_order_relaxed);
      Enqueue(session,
              BuildErrorResponse(
                  &request, Status::ResourceExhausted(
                                "backlog full (" +
                                std::to_string(max_backlog_effective) +
                                " queued); retry later")));
      return;
    }
    PendingRequest pending_request;
    pending_request.session_id = session->id;
    pending_request.received = Clock::now();
    pending_request.request = std::move(request);
    session->inflight++;
    {
      MutexLock lock(dispatch_mutex);
      pending.push_back(std::move(pending_request));
    }
    dispatch_cv.NotifyOne();
  }

  void AdmitQuery(Session* session, Request request)
      NETOUT_EXCLUDES(dispatch_mutex) {
    if (draining) {
      counters.queries_refused.fetch_add(1, std::memory_order_relaxed);
      Enqueue(session, BuildErrorResponse(
                           &request,
                           Status::FailedPrecondition("server is draining")));
      return;
    }
    std::size_t backlog;
    {
      MutexLock lock(dispatch_mutex);
      backlog = pending.size();
    }
    if (backlog >= max_backlog_effective) {
      counters.queries_refused.fetch_add(1, std::memory_order_relaxed);
      Enqueue(session,
              BuildErrorResponse(
                  &request, Status::ResourceExhausted(
                                "backlog full (" +
                                std::to_string(max_backlog_effective) +
                                " queued); retry later")));
      return;
    }
    const bool shed = backlog >= shed_backlog_effective;

    // Effective deadline: the server default is a ceiling the request
    // may lower but not raise; shedding tightens it further. Armed from
    // admission, so queue wait counts against it (end-to-end deadline).
    std::int64_t timeout = request.timeout_millis;
    if (options.default_timeout_millis >= 0) {
      timeout = timeout < 0 ? options.default_timeout_millis
                            : std::min(timeout, options.default_timeout_millis);
    }
    if (shed) {
      timeout = timeout < 0 ? options.shed_timeout_millis
                            : std::min(timeout, options.shed_timeout_millis);
    }

    // Budget: the one dispatcher runs one request's operators at a
    // time, so the global budget is the per-request ceiling.
    std::size_t budget = options.memory_budget_bytes;
    if (request.memory_budget_bytes >= 0) {
      const auto requested =
          static_cast<std::size_t>(request.memory_budget_bytes);
      budget = budget == 0 ? requested : std::min(budget, requested);
      if (budget == 0) budget = 1;  // "0 MB" means effectively nothing
    }

    PendingRequest pending_request;
    pending_request.session_id = session->id;
    pending_request.shed = shed;
    pending_request.token =
        std::make_unique<CancellationToken>(timeout, budget, &drain_token);
    pending_request.received = Clock::now();
    pending_request.request = std::move(request);

    session->inflight++;
    {
      MutexLock lock(dispatch_mutex);
      pending.push_back(std::move(pending_request));
    }
    dispatch_cv.NotifyOne();
  }

  void DeliverCompletions() NETOUT_EXCLUDES(completion_mutex) {
    std::vector<Completion> done;
    {
      MutexLock lock(completion_mutex);
      done.swap(completions);
    }
    for (Completion& completion : done) {
      auto it = sessions_by_id.find(completion.session_id);
      if (it == sessions_by_id.end()) continue;  // session died first
      Session* session = it->second;
      if (session->inflight > 0) session->inflight--;
      Enqueue(session, std::move(completion.payload));
    }
  }

  /// Marks a session unusable without freeing it: pending output is
  /// dropped and SweepClosable reaps it at the end of the poll pass.
  /// Never destroys the Session, so callers holding the pointer mid-pass
  /// (ReadFromSession's line loop, DeliverCompletions) stay safe.
  void AbortSession(Session* session) {
    session->dead = true;
    session->read_closed = true;
    session->close_after_flush = true;
    session->out.clear();
    session->out_offset = 0;
  }

  void Enqueue(Session* session, std::string payload) {
    if (session->dead) return;  // output already dropped; reap pending
    session->out += payload;
    if (session->out.size() - session->out_offset >
        options.max_session_write_bytes) {
      // The reader is slower than its own query stream; buffering
      // without bound would defeat the memory budget, so drop it.
      counters.sessions_overflowed.fetch_add(1, std::memory_order_relaxed);
      AbortSession(session);
      return;
    }
    FlushWrites(session);  // opportunistic; the poll loop retries
  }

  /// Returns false when the session was aborted (it stays allocated
  /// until SweepClosable; only the sweep ever frees a session).
  bool FlushWrites(Session* session) {
    if (session->dead) return false;
    while (session->out_offset < session->out.size()) {
      const ssize_t n =
          ::send(session->fd, session->out.data() + session->out_offset,
                 session->out.size() - session->out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        counters.bytes_written.fetch_add(static_cast<std::uint64_t>(n),
                                         std::memory_order_relaxed);
        session->out_offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      AbortSession(session);  // EPIPE/ECONNRESET and friends
      return false;
    }
    if (session->out_offset == session->out.size()) {
      session->out.clear();
      session->out_offset = 0;
    } else if (session->out_offset > (std::size_t{1} << 18)) {
      session->out.erase(0, session->out_offset);
      session->out_offset = 0;
    }
    return true;
  }

  void SweepClosable() {
    std::vector<Session*> doomed;
    for (const auto& [fd, session] : sessions_by_fd) {
      if (session->dead) {
        doomed.push_back(session.get());
        continue;
      }
      const bool flushed = session->out_offset == session->out.size();
      if (!flushed) continue;
      if (session->close_after_flush ||
          (session->read_closed && session->inflight == 0) ||
          (draining && session->inflight == 0)) {
        doomed.push_back(session.get());
      }
    }
    for (Session* session : doomed) CloseSession(session);
  }

  void ForceCloseAll() {
    std::vector<Session*> doomed;
    doomed.reserve(sessions_by_fd.size());
    for (const auto& [fd, session] : sessions_by_fd) {
      doomed.push_back(session.get());
    }
    for (Session* session : doomed) CloseSession(session);
  }

  /// Frees the session. Only SweepClosable/ForceCloseAll/Cleanup may
  /// call this; mid-pass failure paths go through AbortSession so live
  /// Session pointers are never invalidated under a caller.
  void CloseSession(Session* session) {
    counters.sessions_closed.fetch_add(1, std::memory_order_relaxed);
    sessions_by_id.erase(session->id);
    const int fd = session->fd;
    ::close(fd);
    sessions_by_fd.erase(fd);  // frees `session`
  }

  // ---------------------------------------------------------------
  // Admin payloads

  ServerStatsSnapshot Snapshot() const {
    ServerStatsSnapshot snap;
    snap.sessions_opened =
        counters.sessions_opened.load(std::memory_order_relaxed);
    snap.sessions_closed =
        counters.sessions_closed.load(std::memory_order_relaxed);
    snap.sessions_refused =
        counters.sessions_refused.load(std::memory_order_relaxed);
    snap.sessions_overflowed =
        counters.sessions_overflowed.load(std::memory_order_relaxed);
    snap.requests_received =
        counters.requests_received.load(std::memory_order_relaxed);
    snap.protocol_errors =
        counters.protocol_errors.load(std::memory_order_relaxed);
    snap.queries_ok = counters.queries_ok.load(std::memory_order_relaxed);
    snap.queries_error = counters.queries_error.load(std::memory_order_relaxed);
    snap.queries_degraded =
        counters.queries_degraded.load(std::memory_order_relaxed);
    snap.queries_shed = counters.queries_shed.load(std::memory_order_relaxed);
    snap.queries_refused =
        counters.queries_refused.load(std::memory_order_relaxed);
    snap.batches = counters.batches.load(std::memory_order_relaxed);
    snap.mutations_ok = counters.mutations_ok.load(std::memory_order_relaxed);
    snap.mutations_error =
        counters.mutations_error.load(std::memory_order_relaxed);
    snap.epochs_committed =
        counters.epochs_committed.load(std::memory_order_relaxed);
    snap.vertices_added =
        counters.vertices_added.load(std::memory_order_relaxed);
    snap.vertices_deleted =
        counters.vertices_deleted.load(std::memory_order_relaxed);
    snap.edges_added = counters.edges_added.load(std::memory_order_relaxed);
    snap.edges_deleted =
        counters.edges_deleted.load(std::memory_order_relaxed);
    snap.index_rows_patched =
        counters.index_rows_patched.load(std::memory_order_relaxed);
    snap.index_patch_failures =
        counters.index_patch_failures.load(std::memory_order_relaxed);
    snap.graph_epoch = counters.graph_epoch.load(std::memory_order_relaxed);
    // The segment store lives on the root graph, which every published
    // overlay shares, so any snapshot reaches the same counters.
    if (const SegmentStore* store = CurrentSnapshot()->shard_store()) {
      const ShardedStorageStats storage = store->Stats();
      snap.storage_sharded = true;
      snap.storage_budget_bytes = storage.budget_bytes;
      snap.storage_mapped_bytes = storage.mapped_bytes;
      snap.storage_resident_bytes = storage.resident_bytes;
      snap.storage_segments = storage.segments;
      snap.storage_resident_segments = storage.resident_segments;
      snap.storage_faults = storage.faults;
      snap.storage_evictions = storage.evictions;
    }
    snap.bytes_read = counters.bytes_read.load(std::memory_order_relaxed);
    snap.bytes_written = counters.bytes_written.load(std::memory_order_relaxed);
    snap.latency_count =
        counters.latency.count.load(std::memory_order_relaxed);
    if (snap.latency_count > 0) {
      snap.latency_mean_ms =
          NanosToMillis(
              counters.latency.total_nanos.load(std::memory_order_relaxed)) /
          static_cast<double>(snap.latency_count);
    }
    snap.latency_p50_ms = counters.latency.QuantileMillis(0.50);
    snap.latency_p90_ms = counters.latency.QuantileMillis(0.90);
    snap.latency_p99_ms = counters.latency.QuantileMillis(0.99);
    snap.latency_max_ms = NanosToMillis(
        counters.latency.max_nanos.load(std::memory_order_relaxed));
    return snap;
  }

  std::string StatsJson() const {
    const ServerStatsSnapshot snap = Snapshot();
    JsonWriter json;
    json.BeginObject();
    json.Key("uptime_seconds");
    json.Number(std::chrono::duration_cast<std::chrono::duration<double>>(
                    Clock::now() - start_time)
                    .count());
    json.Key("sessions");
    json.BeginObject();
    json.Key("opened");
    json.Uint(snap.sessions_opened);
    json.Key("closed");
    json.Uint(snap.sessions_closed);
    json.Key("refused");
    json.Uint(snap.sessions_refused);
    json.Key("overflowed");
    json.Uint(snap.sessions_overflowed);
    json.Key("open");
    json.Uint(snap.sessions_opened - snap.sessions_closed);
    json.EndObject();
    json.Key("requests");
    json.BeginObject();
    json.Key("received");
    json.Uint(snap.requests_received);
    json.Key("protocol_errors");
    json.Uint(snap.protocol_errors);
    json.EndObject();
    json.Key("queries");
    json.BeginObject();
    json.Key("ok");
    json.Uint(snap.queries_ok);
    json.Key("error");
    json.Uint(snap.queries_error);
    json.Key("degraded");
    json.Uint(snap.queries_degraded);
    json.Key("shed");
    json.Uint(snap.queries_shed);
    json.Key("refused");
    json.Uint(snap.queries_refused);
    json.Key("batches");
    json.Uint(snap.batches);
    json.EndObject();
    json.Key("graph");
    json.BeginObject();
    json.Key("epoch");
    json.Uint(snap.graph_epoch);
    json.Key("read_only");
    json.Bool(mutations.graph == nullptr);
    json.Key("mutations_ok");
    json.Uint(snap.mutations_ok);
    json.Key("mutations_error");
    json.Uint(snap.mutations_error);
    json.Key("epochs_committed");
    json.Uint(snap.epochs_committed);
    json.Key("vertices_added");
    json.Uint(snap.vertices_added);
    json.Key("vertices_deleted");
    json.Uint(snap.vertices_deleted);
    json.Key("edges_added");
    json.Uint(snap.edges_added);
    json.Key("edges_deleted");
    json.Uint(snap.edges_deleted);
    json.Key("index_rows_patched");
    json.Uint(snap.index_rows_patched);
    json.Key("index_patch_failures");
    json.Uint(snap.index_patch_failures);
    json.EndObject();
    json.Key("storage");
    json.BeginObject();
    json.Key("sharded");
    json.Bool(snap.storage_sharded);
    if (snap.storage_sharded) {
      json.Key("budget_bytes");
      json.Uint(snap.storage_budget_bytes);
      json.Key("mapped_bytes");
      json.Uint(snap.storage_mapped_bytes);
      json.Key("resident_bytes");
      json.Uint(snap.storage_resident_bytes);
      json.Key("segments");
      json.Uint(snap.storage_segments);
      json.Key("resident_segments");
      json.Uint(snap.storage_resident_segments);
      json.Key("faults");
      json.Uint(snap.storage_faults);
      json.Key("evictions");
      json.Uint(snap.storage_evictions);
    }
    json.EndObject();
    json.Key("plan");
    json.BeginObject();
    json.Key("ops_executed");
    json.Uint(counters.plan_ops_executed.load(std::memory_order_relaxed));
    json.Key("vectors_materialized");
    json.Uint(counters.vectors_materialized.load(std::memory_order_relaxed));
    json.Key("vectors_reused");
    json.Uint(counters.vectors_reused.load(std::memory_order_relaxed));
    json.EndObject();
    if (cache != nullptr) {
      const CachedIndex::Stats cache_stats = cache->stats();
      json.Key("cache");
      json.BeginObject();
      json.Key("hits");
      json.Uint(cache_stats.hits);
      json.Key("misses");
      json.Uint(cache_stats.misses);
      json.Key("insertions");
      json.Uint(cache_stats.insertions);
      json.Key("evictions");
      json.Uint(cache_stats.evictions);
      json.Key("rejected_too_large");
      json.Uint(cache_stats.rejected_too_large);
      json.Key("invalidated");
      json.Uint(cache_stats.invalidated);
      json.Key("stale_lookups");
      json.Uint(cache_stats.stale_lookups);
      json.Key("stale_inserts");
      json.Uint(cache_stats.stale_inserts);
      json.Key("entries");
      json.Uint(cache->num_entries());
      json.Key("bytes");
      json.Uint(cache->MemoryBytes());
      const std::uint64_t lookups = cache_stats.hits + cache_stats.misses;
      json.Key("hit_rate");
      json.Number(lookups == 0
                      ? 0.0
                      : static_cast<double>(cache_stats.hits) /
                            static_cast<double>(lookups));
      json.EndObject();
    }
    json.Key("io");
    json.BeginObject();
    json.Key("bytes_read");
    json.Uint(snap.bytes_read);
    json.Key("bytes_written");
    json.Uint(snap.bytes_written);
    json.EndObject();
    json.Key("latency_ms");
    json.BeginObject();
    json.Key("count");
    json.Uint(snap.latency_count);
    json.Key("mean");
    json.Number(snap.latency_mean_ms);
    json.Key("p50");
    json.Number(snap.latency_p50_ms);
    json.Key("p90");
    json.Number(snap.latency_p90_ms);
    json.Key("p99");
    json.Number(snap.latency_p99_ms);
    json.Key("max");
    json.Number(snap.latency_max_ms);
    json.EndObject();
    json.EndObject();
    return std::move(json).Take();
  }

  std::string ConfigJson() const {
    JsonWriter json;
    json.BeginObject();
    json.Key("host");
    json.String(options.host);
    json.Key("port");
    json.Uint(bound_port);
    json.Key("num_threads");
    json.Uint(options.num_threads);
    json.Key("max_sessions");
    json.Uint(options.max_sessions);
    json.Key("max_line_bytes");
    json.Uint(options.limits.max_line_bytes);
    json.Key("default_timeout_ms");
    json.Int(options.default_timeout_millis);
    json.Key("memory_budget_bytes");
    json.Uint(options.memory_budget_bytes);
    json.Key("shed_backlog");
    json.Uint(shed_backlog_effective);
    json.Key("shed_timeout_ms");
    json.Int(options.shed_timeout_millis);
    json.Key("max_backlog");
    json.Uint(max_backlog_effective);
    json.Key("allow_remote_shutdown");
    json.Bool(options.allow_remote_shutdown);
    json.Key("index");
    json.String(engine_options.index != nullptr ? engine_options.index->Name()
                                                : "none");
    json.Key("read_only");
    json.Bool(mutations.graph == nullptr);
    const HinPtr snapshot = CurrentSnapshot();
    json.Key("epoch");
    json.Uint(snapshot != nullptr ? snapshot->epoch() : 0);
    json.Key("vertices");
    json.Uint(snapshot != nullptr ? snapshot->TotalVertices() : 0);
    json.Key("edges");
    json.Uint(snapshot != nullptr ? snapshot->TotalEdges() : 0);
    json.EndObject();
    return std::move(json).Take();
  }
};

Server::Server(HinPtr hin, const EngineOptions& engine_options,
               const ServerOptions& options, const CachedIndex* cache,
               const MutationContext& mutations)
    : impl_(std::make_unique<Impl>()) {
  {
    MutexLock lock(impl_->snapshot_mutex);
    impl_->hin = std::move(hin);
  }
  impl_->engine_options = engine_options;
  impl_->options = options;
  impl_->cache = cache;
  impl_->mutations = mutations;
}

Server::~Server() = default;

Status Server::Start() { return impl_->Start(); }

Status Server::Serve() { return impl_->Serve(); }

void Server::RequestShutdown() { impl_->RequestShutdown(); }

std::uint16_t Server::port() const { return impl_->bound_port; }

ServerStatsSnapshot Server::stats() const { return impl_->Snapshot(); }

std::string Server::StatsJson() const { return impl_->StatsJson(); }

std::string Server::ConfigJson() const { return impl_->ConfigJson(); }

const CancellationToken& Server::drain_token() const {
  return impl_->drain_token;
}

}  // namespace netout
