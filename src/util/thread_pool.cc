#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace qbs {
namespace {

using Body = std::function<void(size_t index, size_t worker)>;

// The pool's one lock. It guards the job queue, the shutdown flag and every
// job's bookkeeping, and is never held while `fn` runs. ApplyUpdates calls
// ParallelFor under the index writer lock, so it ranks above kIndex.
Mutex pool_mu{LockRank::kThreadPool};
// Wakes helpers (a job queued, shutdown) and callers (their last helper done).
CondVar pool_cv;

// One ParallelFor call. It lives on the caller's stack: the caller takes it
// off the queue before waiting for the helpers that joined, so no helper
// can reach it once the call returns.
struct Job {
  Job(size_t count, size_t workers, const Body& fn)
      : count(count),
        workers(workers),
        grain(std::max<size_t>(1, count / (workers * 8))),
        fn(fn) {}

  // Runs chunks as `worker` until the cursor is spent. The first exception
  // spends the cursor, so no more chunks go out, and is kept for the caller.
  void Drain(size_t worker) {
    try {
      for (;;) {
        const size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= count) return;
        const size_t end = std::min(begin + grain, count);
        for (size_t i = begin; i < end; ++i) fn(i, worker);
      }
    } catch (...) {
      cursor.store(count, std::memory_order_relaxed);
      MutexLock lock(pool_mu);
      if (!error) error = std::current_exception();
    }
  }

  const size_t count;
  const size_t workers;
  const size_t grain;
  const Body& fn;
  std::atomic<size_t> cursor{0};
  size_t next_worker QBS_GUARDED_BY(pool_mu) = 1;  // the caller is 0
  size_t running QBS_GUARDED_BY(pool_mu) = 0;  // helpers joined, not done
  std::exception_ptr error QBS_GUARDED_BY(pool_mu);
};

// Jobs with worker indices left to hand out, oldest first.
std::deque<Job*> pool_queue QBS_GUARDED_BY(pool_mu);
bool pool_shutdown QBS_GUARDED_BY(pool_mu) = false;

void HelperLoop() {
  for (;;) {
    Job* job = nullptr;
    size_t worker = 0;
    {
      MutexLock lock(pool_mu);
      while (pool_queue.empty() && !pool_shutdown) pool_cv.Wait(pool_mu);
      if (pool_queue.empty()) return;
      job = pool_queue.front();
      worker = job->next_worker++;
      if (job->next_worker == job->workers) pool_queue.pop_front();
      ++job->running;
    }
    job->Drain(worker);
    {
      MutexLock lock(pool_mu);
      // At 0 the caller may return and `job` dies: it is not touched again.
      if (--job->running != 0) continue;
    }
    pool_cv.NotifyAll();
  }
}

// Persistent helpers: started by the first parallel call, joined at exit.
class Helpers {
 public:
  Helpers() {
    const size_t n = EffectiveThreads(0);
    for (size_t i = 0; i < n; ++i) threads_.emplace_back(HelperLoop);
  }
  ~Helpers() {
    {
      MutexLock lock(pool_mu);
      pool_shutdown = true;
    }
    pool_cv.NotifyAll();
    for (auto& t : threads_) t.join();
  }
  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

 private:
  std::vector<std::thread> threads_;
};

}  // namespace

size_t EffectiveThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void ParallelFor(size_t count, size_t num_threads, const Body& fn) {
  if (count == 0) return;
  const size_t workers = std::min(EffectiveThreads(num_threads), count);
  if (workers == 1) {
    for (size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  static Helpers helpers;
  Job job(count, workers, fn);
  {
    MutexLock lock(pool_mu);
    pool_queue.push_back(&job);
  }
  pool_cv.NotifyAll();
  job.Drain(0);
  std::exception_ptr error;
  {
    MutexLock lock(pool_mu);
    // No helper joins from here on: `job` dies with this call.
    std::erase(pool_queue, &job);
    while (job.running != 0) pool_cv.Wait(pool_mu);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace qbs
