#include "src/base/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "src/base/logging.h"

namespace percival {

namespace {
// Set for the lifetime of each worker thread; lets IsWorkerThread() answer
// without any synchronization.
thread_local const ThreadPool* tls_worker_pool = nullptr;

// How long a fork/join participant stays hot before it parks. A forward's
// fan-outs follow each other within a few µs, while a condvar wake-up costs
// tens of µs on a virtualized host; the window covers the first and is
// short enough that an idle pool stops burning CPU almost at once.
constexpr std::chrono::microseconds kSpinWindow{50};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

// Polls `ready` until it holds or kSpinWindow has passed; returns its last
// answer. The clock is read once per batch of pauses.
template <typename Ready>
bool SpinUntil(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      if (ready()) {
        return true;
      }
      CpuRelax();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
  }
}

// One ParallelFor's shared state. The completion count counts *iterations*,
// not helpers: once every iteration has run, the caller returns even if
// some helper tasks are still queued behind unrelated work (they find the
// range drained and exit). That also means a caller that claims every
// iteration itself never blocks on the pool, so fanning out while holding
// a lock the workers contend on cannot deadlock. Shared (with a copy of
// fn), because a straggler helper may outlive the caller's frame.
struct ForkJoin {
  std::function<void(int)> fn;
  int count = 0;
  std::atomic<int> next{0};
  std::atomic<int> completed{0};
  std::mutex mutex;  // orders the last notify after a parked caller's check
  std::condition_variable done;

  bool Finished() const { return completed.load(std::memory_order_acquire) == count; }

  // The work-stealing loop the caller and every helper run.
  void Drain() {
    int ran = 0;
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count;) {
      fn(i);
      ++ran;
    }
    if (ran > 0 && completed.fetch_add(ran, std::memory_order_acq_rel) + ran == count) {
      std::lock_guard<std::mutex> lock(mutex);
      done.notify_all();
    }
  }
};
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  PCHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> fn, int copies, bool spin_after) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PCHECK(!shutting_down_);
    for (int c = 1; c < copies; ++c) {
      queue_.push_back(Task{fn, spin_after});
    }
    queue_.push_back(Task{std::move(fn), spin_after});
    in_flight_ += copies;
    queued_.store(static_cast<int>(queue_.size()), std::memory_order_relaxed);
  }
  // Spinning workers are not waiting, so these wake only parked ones.
  for (int c = 0; c < copies; ++c) {
    work_available_.notify_one();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  Enqueue(std::move(task), 1, /*spin_after=*/false);
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::IsWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::ParallelFor(int count, const std::function<void(int)>& fn) {
  if (count <= 0) {
    return;
  }
  // From inside a worker (or with nothing to fan out to) run inline: every
  // other worker may be blocked in a ParallelFor of its own, so queueing and
  // waiting here could leave no thread free to make progress.
  if (count == 1 || IsWorkerThread() || num_threads() <= 1) {
    for (int i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }

  auto state = std::make_shared<ForkJoin>();
  state->fn = fn;
  state->count = count;
  // The caller drains too, so count - 1 helpers already give every
  // iteration its own thread.
  const int helpers = std::min(num_threads(), count - 1);
  Enqueue([state] { state->Drain(); }, helpers, /*spin_after=*/true);
  state->Drain();
  if (!SpinUntil([&state] { return state->Finished(); })) {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&state] { return state->Finished(); });
  }
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  bool hot = false;
  for (;;) {
    if (hot) {
      // The next fan-out of the same forward is usually microseconds away:
      // catch it here instead of paying a condvar wake-up for it.
      SpinUntil([this] { return queued_.load(std::memory_order_relaxed) > 0; });
    }
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutting down and drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(static_cast<int>(queue_.size()), std::memory_order_relaxed);
    }
    hot = task.spin_after;
    task.fn();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace percival
