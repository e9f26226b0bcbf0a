#ifndef NETOUT_COMMON_THREAD_POOL_H_
#define NETOUT_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace netout {

class CancellationToken;

/// A minimal fixed-size thread pool. A process entry point (netout_query,
/// the server) owns one and every executor borrows it through
/// ExecOptions::pool; plans run inline on the calling thread and only
/// large operators fan their rows out over it. The immutable Hin makes
/// query execution lock-free, so workers never contend outside the
/// queue itself.
///
/// Completion tracking belongs to TaskGroup, not the pool: several
/// clients can share one pool and each waits only for its own tasks.
/// A task that throws never terminates the process — raw-submitted
/// exceptions are logged and dropped; TaskGroup-submitted exceptions are
/// captured and rethrown from TaskGroup::Wait().
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker. Prefer
  /// TaskGroup::Submit when completion must be awaited: an exception
  /// escaping a raw-submitted task is logged and dropped.
  void Submit(std::function<void()> task) NETOUT_EXCLUDES(mutex_);

  /// Blocks until the pool is globally idle: every task submitted by
  /// *any* client has finished. Prefer TaskGroup::Wait, which waits only
  /// for its own tasks and propagates their exceptions.
  void Wait() NETOUT_EXCLUDES(mutex_);

  /// Runs one queued task on the calling thread, if any is queued.
  /// Returns false when the queue was empty.
  bool RunOneTask() NETOUT_EXCLUDES(mutex_);

  std::size_t num_threads() const { return workers_.size(); }

 private:
  friend class TaskGroup;

  // A queued task plus the TaskGroup it belongs to (nullptr for raw
  // Submit()). The owner tag lets a waiting group help-drain only its
  // own tasks: pulling a foreign group's (possibly blocking) task onto
  // the waiting thread would reintroduce the wait-scoping bug.
  struct QueuedTask {
    std::function<void()> fn;
    const void* owner;
  };

  // TaskGroup plumbing: tagged submission, and draining restricted to
  // one owner's tasks. TaskGroup::Wait uses the latter while blocked,
  // so a Wait() issued from inside a pool task (e.g. a nested
  // ParallelFor) cannot starve the pool.
  void SubmitOwned(const void* owner, std::function<void()> task)
      NETOUT_EXCLUDES(mutex_);
  bool RunOneTaskOwnedBy(const void* owner) NETOUT_EXCLUDES(mutex_);

  void WorkerLoop() NETOUT_EXCLUDES(mutex_);
  // Runs `task` with the in-flight count released via RAII, so a
  // throwing task cannot leave the pool's idle accounting stuck.
  void ExecuteTask(std::function<void()> task) NETOUT_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<QueuedTask> queue_ NETOUT_GUARDED_BY(mutex_);
  // Written only by the constructor, before any thread but the owner
  // can see the pool; workers never touch it. Safe to read unlocked.
  std::vector<std::thread> workers_;
  std::size_t in_flight_ NETOUT_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ NETOUT_GUARDED_BY(mutex_) = false;
};

/// A completion latch over one batch of tasks on a shared ThreadPool.
/// Multiple groups can run concurrently on the same pool; each Wait()
/// observes only its own tasks (the pool's global Wait() would make
/// concurrent clients block on each other's work).
///
/// Exception contract: the first exception thrown by any task of the
/// group is captured and rethrown from Wait(); later exceptions of the
/// same group are dropped. The destructor waits for completion but
/// swallows any unconsumed exception.
///
/// Thread contract: tasks may Submit() follow-up tasks into their own
/// group; unrelated threads must not Submit() concurrently with Wait().
class TaskGroup {
 public:
  /// `pool` is borrowed and must outlive the group. `cancel` (optional,
  /// borrowed) makes the group cooperative: once the token reports
  /// ShouldStop(), tasks of this group that have not started yet are
  /// skipped (dequeued as no-ops, so Wait() still returns promptly).
  /// Already-running tasks finish; callers that need partial-output
  /// correctness must consult the token after Wait() — a skipped task
  /// left its output slot untouched.
  explicit TaskGroup(ThreadPool* pool,
                     const CancellationToken* cancel = nullptr);

  /// Blocks until every submitted task finished (never throws).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task`; its completion (and any exception) is tracked by
  /// this group.
  void Submit(std::function<void()> task) NETOUT_EXCLUDES(mutex_);

  /// Blocks until every task submitted to this group has finished, then
  /// rethrows the first captured exception, if any. While blocked, the
  /// calling thread helps execute this group's queued tasks (never a
  /// foreign group's, which could block the waiter on unrelated work).
  void Wait() NETOUT_EXCLUDES(mutex_);

 private:
  // Waits for pending_ == 0 without consuming the captured exception.
  void WaitAllFinished() NETOUT_EXCLUDES(mutex_);

  ThreadPool* pool_;
  const CancellationToken* cancel_;
  Mutex mutex_;
  CondVar done_;
  std::size_t pending_ NETOUT_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_exception_ NETOUT_GUARDED_BY(mutex_);
};

/// Runs fn(i) for i in [0, count) across the pool and waits for
/// completion of exactly these calls (concurrent ParallelFor invocations
/// on one pool do not interfere). The first exception thrown by `fn` is
/// rethrown here. Safe to call from inside a pool task.
///
/// `cancel` (optional, borrowed) stops cooperatively: queued chunks of a
/// stopped token are skipped and running chunks stop between iterations,
/// so some fn(i) calls never happen. The caller must check the token
/// after returning before trusting the outputs.
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn,
                 const CancellationToken* cancel = nullptr);

}  // namespace netout

#endif  // NETOUT_COMMON_THREAD_POOL_H_
