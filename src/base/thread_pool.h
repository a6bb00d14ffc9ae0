// Fixed-size worker pool modelled on Blink's raster worker threads.
//
// The renderer submits raster tasks here; PERCIVAL's classifier runs inside
// these workers, which is how the paper achieves per-image parallel
// classification ("multiple raster threads each rasterizing different raster
// tasks in parallel", §3.3).
#ifndef PERCIVAL_SRC_BASE_THREAD_POOL_H_
#define PERCIVAL_SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace percival {

class ThreadPool {
 public:
  // Creates `num_threads` workers (must be >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks may be submitted from any thread, including from
  // inside another task. The worker that runs it parks on a condvar as soon
  // as the queue is empty: raster threads never burn CPU waiting.
  void Submit(std::function<void()> task);

  // Blocks until all submitted tasks (including nested submissions) have run.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // True when called from one of this pool's worker threads. Kernels use it
  // to fall back to serial execution instead of fanning out from inside a
  // worker (a nested blocking ParallelFor could otherwise stall the pool).
  bool IsWorkerThread() const;

  // Runs `fn(i)` for i in [0, count) across the pool and waits: a fork/join
  // in which the calling thread takes part and min(num_threads(), count - 1)
  // workers help, all claiming iterations from one shared counter (work
  // stealing, so a preempted worker cannot stall the range). The wait
  // covers only this call's iterations; concurrent Submit() traffic does
  // not extend it. A forward issues its fan-outs back to back, so the join
  // stays hot: a worker that just helped spins for a short window before it
  // parks, and the caller spins on the completion count before it falls
  // back to a condvar. Safe to call from a worker thread: it then runs
  // inline on the caller.
  void ParallelFor(int count, const std::function<void(int)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
    bool spin_after = false;  // a ParallelFor helper: stay hot for the next fan-out
  };

  // Queues `copies` instances of `fn` and wakes as many workers.
  void Enqueue(std::function<void()> fn, int copies, bool spin_after);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<Task> queue_;
  // queue_.size(), readable without the lock by spinning workers.
  std::atomic<int> queued_{0};
  std::vector<std::thread> workers_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace percival

#endif  // PERCIVAL_SRC_BASE_THREAD_POOL_H_
