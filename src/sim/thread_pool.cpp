#include "sim/thread_pool.hpp"

#include <exception>

#include "sim/contracts.hpp"
#include "sim/env.hpp"

namespace mkos::sim {

void TaskPool::submit_weighted(double cost, Task task) {
  (void)cost;
  submit(std::move(task));
}

ThreadPool::ThreadPool(int threads) {
  MKOS_EXPECTS(threads >= 1);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(Task task) {
  MKOS_EXPECTS(task != nullptr);
  {
    const MutexLock lock(mu_);
    MKOS_EXPECTS(!stop_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  // Predicate loop (not the lambda overload of cv::wait): the predicate
  // reads guarded state, and inside this scope the capability analysis can
  // see the lock is held — a lambda would be analyzed as a separate,
  // lock-free function.
  while (!queue_.empty() || running_ != 0) lock.wait(idle_cv_);
}

std::uint64_t ThreadPool::completed() const {
  const MutexLock lock(mu_);
  return completed_;
}

int ThreadPool::default_threads() {
  // 0 = "unset" sentinel; a literal MKOS_THREADS=0 is rejected as out of range.
  const int n = env_int("MKOS_THREADS", /*fallback=*/0, /*lo=*/1, /*hi=*/4096);
  if (n >= 1) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::worker_loop() {
  while (true) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) lock.wait(work_cv_);
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();
    {
      const MutexLock lock(mu_);
      --running_;
      ++completed_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

namespace {

/// parallel_for's join block: counts completions and keeps the first
/// exception for rethrow in the caller.
struct Join {
  Mutex mu;
  std::condition_variable cv;
  std::size_t remaining MKOS_GUARDED_BY(mu);
  std::exception_ptr error MKOS_GUARDED_BY(mu);
};

}  // namespace

void parallel_for(TaskPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  Join join{.mu = {}, .cv = {}, .remaining = n, .error = nullptr};
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&join, &body, i] {
      std::exception_ptr ep;
      try {
        body(i);
      } catch (...) {
        ep = std::current_exception();
      }
      const MutexLock lock(join.mu);
      if (ep != nullptr && join.error == nullptr) join.error = ep;
      if (--join.remaining == 0) join.cv.notify_all();
    });
  }
  std::exception_ptr error;
  {
    MutexLock lock(join.mu);
    while (join.remaining != 0) lock.wait(join.cv);
    error = join.error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace mkos::sim
