// Shared runtime layer: the fixed-size thread pool used by the whole
// system — the sharded service advances shards and fans queries out on it,
// and the core engine's maintainer executes its staged bucket work on it.
// It lives below both so the engine can parallelize without depending on
// the service. Deliberately minimal: one FIFO queue under one mutex, tasks
// are std::function<void()>, results travel through captured state, and
// WaitIdle() gives the caller a barrier. The ksir library itself is
// exception-free (errors travel as Status through captured state), but the
// pool must not be: a task that throws — user callbacks, std::bad_alloc —
// would otherwise leave the in-flight counters permanently elevated and
// deadlock every waiter. The first exception of a batch is captured and
// rethrown to the waiter; the counters are decremented on every exit path.
#ifndef KSIR_RUNTIME_WORKER_POOL_H_
#define KSIR_RUNTIME_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace ksir {

/// Shared worker pool. Thread-safe; Submit may be called from any thread,
/// including from inside a task (tasks must not WaitIdle, though — that
/// would deadlock the barrier they are part of; use ParallelRun for nested
/// fan-out, its caller participation never blocks pool progress).
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1). Prefer
  /// MakeWorkerPool — the one factory every deployment seam constructs
  /// pools through. `telemetry` (optional, must outlive the pool) receives
  /// the queue-depth gauge, the task counter and the task-latency
  /// histogram; null gives the pool a private kOff Telemetry.
  explicit WorkerPool(std::size_t num_threads,
                      Telemetry* telemetry = nullptr);

  /// Drains the queue, then joins all workers. An exception captured
  /// after the last WaitIdle is discarded.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `task` for execution on some worker, oldest task first. A
  /// throwing task does not kill the worker: the first exception since the
  /// last WaitIdle is captured and rethrown there.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any of them raised (clearing it).
  void WaitIdle();

  std::size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // tasks currently executing
  /// First exception thrown by a directly submitted task (TaskGroup tasks
  /// capture into their group instead); rethrown by WaitIdle.
  std::exception_ptr first_exception_;
  bool shutdown_ = false;
  /// Fallback Telemetry (kOff) owned when none was passed; keeps the
  /// metric pointers below always valid.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  /// Instantaneous queue depth, set under mutex_ at every push/pop, so a
  /// plain last-value gauge is exact.
  Gauge* queue_depth_gauge_;
  Counter* tasks_counter_;
  Histogram* task_hist_;
  std::vector<std::thread> threads_;
};

/// The one pool-construction seam (service, engine-owned maintenance
/// pools, benches, tests): resolves `requested` threads — 0 falls back to
/// `fallback` — and builds the pool. Keeping every call site on this
/// factory is what makes "no stray thread spawns" checkable.
std::unique_ptr<WorkerPool> MakeWorkerPool(std::size_t requested,
                                           std::size_t fallback = 1,
                                           Telemetry* telemetry = nullptr);

/// Completion barrier for one batch of tasks on a shared pool. Unlike
/// WorkerPool::WaitIdle, Wait() only blocks on tasks submitted through THIS
/// group, so concurrent queries and ingestion can share one pool without
/// waiting on each other's work. Exceptions thrown by group tasks belong to
/// the group: Wait() rethrows the first one, the pool never sees them.
class TaskGroup {
 public:
  /// `pool` must outlive the group.
  explicit TaskGroup(WorkerPool* pool) : pool_(pool) {}

  /// Drains the group without rethrowing (an exception never surfaced by a
  /// Wait() call is discarded; destructors must not throw).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool and tracks it in this group. The pending
  /// count is decremented whether the task returns or throws.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted through this group has finished,
  /// then rethrows the first exception any of them raised (clearing it).
  void Wait();

 private:
  /// The barrier without the rethrow (shared by Wait and the destructor).
  void WaitDrained();

  WorkerPool* pool_;
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
  std::exception_ptr first_exception_;
};

/// Runs `fn(p, u)` for every unit u in [0, units) with CALLER
/// PARTICIPATION. Up to `participants` participants (capped at `units` and
/// at the pool's threads plus the caller) claim units from one shared
/// cursor; `p` is the executing participant's stable index in [0,
/// participants), and each participant runs its units one after another,
/// so two concurrent fn calls never share a `p` — safe to key
/// per-participant scratch on. The caller is participant 0 and keeps
/// claiming until no unit is left, so the call completes even when every
/// pool worker is busy (or when the caller IS a pool worker, as with
/// per-shard maintenance fanning out on the service's shared pool).
/// Helpers never block: one that finds the cursor exhausted returns. That
/// is what makes nested fan-out deadlock-free where a TaskGroup::Wait
/// inside a pool task is not. Each unit is executed exactly once; the call
/// returns after every unit has finished, rethrowing the first exception a
/// participant reports. `pool` may be null when `participants <= 1`.
void ParallelRun(WorkerPool* pool, std::size_t participants,
                 std::size_t units,
                 std::function<void(std::size_t, std::size_t)> fn);

}  // namespace ksir

#endif  // KSIR_RUNTIME_WORKER_POOL_H_
