#include "runtime/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace ksir {

WorkerPool::WorkerPool(std::size_t num_threads, Telemetry* telemetry)
    : owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()) {
  MetricRegistry& reg = telemetry_->registry();
  queue_depth_gauge_ =
      reg.GetGauge("ksir_pool_queue_depth", "Tasks waiting in the pool queue");
  tasks_counter_ =
      reg.GetCounter("ksir_pool_tasks_total", "Tasks submitted to the pool");
  task_hist_ = reg.GetHistogram("ksir_pool_task_seconds",
                                "Execution time of one pool task");
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::unique_ptr<WorkerPool> MakeWorkerPool(std::size_t requested,
                                           std::size_t fallback,
                                           Telemetry* telemetry) {
  return std::make_unique<WorkerPool>(requested > 0 ? requested : fallback,
                                      telemetry);
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    queue_.push_back(std::move(task));
    queue_depth_gauge_->Set(static_cast<std::int64_t>(queue_.size()));
  }
  tasks_counter_->Add(1);
  work_available_.notify_one();
}

void WorkerPool::WaitIdle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this]() { return queue_.empty() && in_flight_ == 0; });
  if (first_exception_) {
    std::rethrow_exception(std::exchange(first_exception_, nullptr));
  }
}

void TaskGroup::Submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    ++pending_;
  }
  pool_->Submit([this, task = std::move(task)]() {
    // The pending count must come back down on every exit path, or Wait()
    // deadlocks forever; the group's first exception travels to its waiter.
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock lock(mutex_);
    if (error && !first_exception_) first_exception_ = std::move(error);
    if (--pending_ == 0) done_.notify_all();
  });
}

void TaskGroup::WaitDrained() {
  std::unique_lock lock(mutex_);
  done_.wait(lock, [this]() { return pending_ == 0; });
}

void TaskGroup::Wait() {
  WaitDrained();
  std::unique_lock lock(mutex_);
  if (first_exception_) {
    std::rethrow_exception(std::exchange(first_exception_, nullptr));
  }
}

TaskGroup::~TaskGroup() { WaitDrained(); }

void ParallelRun(WorkerPool* pool, std::size_t participants,
                 std::size_t units,
                 std::function<void(std::size_t, std::size_t)> fn) {
  if (units == 0) return;
  participants = std::min(participants, units);
  if (participants <= 1) {
    for (std::size_t u = 0; u < units; ++u) fn(0, u);
    return;
  }
  participants = std::min(participants, pool->num_threads() + 1);
  // Shared by the caller and the helper tasks. Helpers may still be queued
  // when the call returns (every unit already claimed elsewhere); they find
  // the cursor exhausted, touch nothing but the state block, and return —
  // hence the shared_ptr and the fn copy inside it. A participant reports
  // its finished units once, under `mutex`, when the cursor runs out: that
  // one lock publishes its units' outputs to the caller and keeps the
  // per-unit cost at one atomic increment.
  struct State {
    std::function<void(std::size_t, std::size_t)> fn;
    std::size_t units;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t finished = 0;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<State>();
  state->fn = std::move(fn);
  state->units = units;
  const auto run_participant = [](const std::shared_ptr<State>& s,
                                  std::size_t p) {
    std::size_t done = 0;
    std::exception_ptr error;
    for (;;) {
      const std::size_t u = s->next.fetch_add(1, std::memory_order_relaxed);
      if (u >= s->units) break;
      try {
        s->fn(p, u);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      ++done;
    }
    if (done == 0) return;
    std::unique_lock lock(s->mutex);
    if (error && !s->first_exception) s->first_exception = std::move(error);
    s->finished += done;
    if (s->finished == s->units) s->all_done.notify_all();
  };
  for (std::size_t p = 1; p < participants; ++p) {
    pool->Submit([state, run_participant, p]() { run_participant(state, p); });
  }
  run_participant(state, 0);
  std::unique_lock lock(state->mutex);
  state->all_done.wait(lock,
                       [&]() { return state->finished == state->units; });
  if (state->first_exception) {
    std::rethrow_exception(std::exchange(state->first_exception, nullptr));
  }
}

void WorkerPool::WorkerLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this]() { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with the queue drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_gauge_->Set(static_cast<std::int64_t>(queue_.size()));
    ++in_flight_;
    lock.unlock();
    // in_flight_ must come back down whether the task returns or throws;
    // TaskGroup tasks never leak exceptions here (their wrapper captures
    // into the group), so first_exception_ is the direct-Submit channel.
    std::exception_ptr error;
    try {
      StageScope scope(telemetry_, task_hist_, "pool.task");
      task();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !first_exception_) first_exception_ = std::move(error);
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

}  // namespace ksir
