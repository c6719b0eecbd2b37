#pragma once
// The campaign engine's task pool.
//
// ThreadPool is the one pool: a shared FIFO queue drained by N workers.
// Campaign cells are short (milliseconds), so a single queue keeps every
// worker busy. TaskPool is the interface the campaign fans out through, so
// a caller can wrap the pool (e.g. to stamp the first dispatch). Determinism
// is never the pool's job: tasks derive every random stream from positional
// seeds and write results into caller-indexed slots, so execution order
// cannot leak into results at any thread count.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "sim/thread_safety.hpp"

namespace mkos::sim {

class TaskPool {
 public:
  using Task = std::function<void()>;

  // SchedTelemetry, submit_weighted, cost_aware and sched_telemetry have
  // FIFO defaults and no caller in the simulator; they stay only because
  // perfbench's DispatchProbe overrides them.
  struct SchedTelemetry {
    bool active = false;
    std::uint64_t steals = 0;
    std::uint64_t steal_fails = 0;
    std::uint64_t local_pops = 0;
    double imbalance = 0.0;
  };

  virtual ~TaskPool() = default;

  /// Enqueue a task. Tasks must not throw and must not call back into the
  /// pool's blocking APIs (wait_idle / parallel_for) — cells are leaves.
  virtual void submit(Task task) = 0;

  virtual void submit_weighted(double cost, Task task);

  /// Block until the queue is empty AND no task is executing.
  virtual void wait_idle() = 0;

  [[nodiscard]] virtual int size() const = 0;

  [[nodiscard]] virtual bool cost_aware() const { return false; }
  [[nodiscard]] virtual SchedTelemetry sched_telemetry() const { return {}; }
};

class ThreadPool final : public TaskPool {
 public:
  /// Spawns `threads` workers (>= 1). Defaults to `default_threads()`.
  explicit ThreadPool(int threads = default_threads());
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(Task task) override MKOS_EXCLUDES(mu_);
  void wait_idle() override MKOS_EXCLUDES(mu_);

  [[nodiscard]] int size() const override {
    return static_cast<int>(workers_.size());
  }

  /// Total tasks completed over the pool's lifetime.
  [[nodiscard]] std::uint64_t completed() const MKOS_EXCLUDES(mu_);

  /// `MKOS_THREADS` env var when set (strictly validated: integer in
  /// [1, 4096], anything else is a hard error via sim::env_int), otherwise
  /// `std::thread::hardware_concurrency()`.
  [[nodiscard]] static int default_threads();

 private:
  void worker_loop() MKOS_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks
  std::condition_variable idle_cv_;   // wait_idle() waits for drain
  std::deque<Task> queue_ MKOS_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // written in ctor, joined in dtor only
  std::size_t running_ MKOS_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ MKOS_GUARDED_BY(mu_) = 0;
  bool stop_ MKOS_GUARDED_BY(mu_) = false;
};

/// Run `body(0..n-1)` across the pool and block until all complete. The first
/// exception thrown by any body is rethrown in the caller (remaining
/// iterations still run to completion). Must not be called from inside a
/// pool task.
void parallel_for(TaskPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace mkos::sim
