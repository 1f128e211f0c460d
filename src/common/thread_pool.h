#ifndef PLP_COMMON_THREAD_POOL_H_
#define PLP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace plp {

/// Fixed-size worker pool. Bucket gradients in Algorithm 1 are independent,
/// so PlpTrainer can fan them out here; on a single-core host the pool
/// degrades gracefully to near-serial execution.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw.
  void Schedule(std::function<void()> task);

  /// Enqueues every task in `tasks` (moved from) under ONE lock
  /// acquisition and ONE condvar signal — notify_one for a single task,
  /// notify_all for more. A submitter pushing k requests pays one wakeup
  /// instead of k; on the open-loop serving path that is the difference
  /// between one syscall-bound signal per request and one per batch.
  void ScheduleAll(std::span<std::function<void()>> tasks);

  /// Blocks until every scheduled task has finished.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Iterations start in increasing index order (the queue is FIFO); the
  /// training engine's in-order commit window relies on that to be
  /// deadlock-free.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Index in [0, num_threads) of the calling pool worker, or -1 when the
  /// caller is not a pool worker (e.g. the scheduling thread). Tasks run
  /// only on workers, so inside a ParallelFor body this is a valid index —
  /// which lets the trainer give each worker its own scratch buffers
  /// without locks.
  static int CurrentWorkerIndex();

 private:
  void WorkerLoop(int worker_index);

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace plp

#endif  // PLP_COMMON_THREAD_POOL_H_
