// Annotated synchronization primitives: the ONLY place in src/ where the
// raw standard-library lock types may appear (enforced by qbs_lint's
// raw-mutex rule). Every mutex in the project is one of these wrappers,
// which buys two machine-checked guarantees the raw types cannot give:
//
//   1. Static proof of guarded access. The wrappers carry Clang Thread
//      Safety Analysis capability annotations (Hutchins et al., "C/C++
//      Thread Safety Analysis"), so a field declared
//      `QBS_GUARDED_BY(mu_)` cannot be read or written without the lock
//      — at compile time, for every path, at zero runtime cost. CI builds
//      with `-Wthread-safety -Werror` under clang; under other compilers
//      the annotations expand to nothing.
//
//   2. Deterministic deadlock detection. Each Mutex/SharedMutex carries a
//      LockRank, and debug builds (plus any build configured with
//      -DQBS_LOCK_RANK_CHECKS=ON) maintain a per-thread stack of held
//      locks: acquiring out of ascending-rank order, or re-entrantly,
//      aborts immediately with both ranks named — a potential deadlock
//      becomes a deterministic test failure at the first wrong
//      acquisition, not a 1-in-10^6 hang under load. Release builds
//      compile the checks out entirely.
//
// The project-wide rank table lives in the LockRank enum below and is
// documented (with the per-subsystem capability map) in
// docs/ARCHITECTURE.md § Concurrency contracts. The one sanctioned
// analysis seam is CondVar: its Wait/WaitUntil methods release and
// re-acquire the mutex inside the standard condition variable, which the
// analysis cannot see — they are annotated QBS_REQUIRES(mu) so callers
// must still prove they hold the lock, and waits are written as explicit
// `while (!predicate) cv.Wait(mu);` loops so the predicate reads are
// themselves analyzed under the lock.

#ifndef QBS_UTIL_SYNC_H_
#define QBS_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---- Clang Thread Safety Analysis annotation macros -----------------------
//
// QBS_-prefixed spellings of the standard capability attributes this
// project uses (see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
// There is no opt-out macro: code the analysis rejects is restructured.
// Under non-clang compilers every macro expands to nothing.

#if defined(__clang__)
#define QBS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define QBS_THREAD_ANNOTATION_(x)
#endif

#define QBS_CAPABILITY(x) QBS_THREAD_ANNOTATION_(capability(x))
#define QBS_SCOPED_CAPABILITY QBS_THREAD_ANNOTATION_(scoped_lockable)
#define QBS_GUARDED_BY(x) QBS_THREAD_ANNOTATION_(guarded_by(x))
#define QBS_REQUIRES(...) \
  QBS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define QBS_ACQUIRE(...) \
  QBS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define QBS_ACQUIRE_SHARED(...) \
  QBS_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define QBS_RELEASE(...) \
  QBS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define QBS_RELEASE_SHARED(...) \
  QBS_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define QBS_RELEASE_GENERIC(...) \
  QBS_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define QBS_TRY_ACQUIRE(...) \
  QBS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define QBS_TRY_ACQUIRE_SHARED(...) \
  QBS_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

// ---- Lock-rank runtime checker --------------------------------------------

// Whether this build validates lock acquisition order and re-entrancy at
// runtime. Defaults to on whenever NDEBUG is absent (Debug, ASan, UBSan,
// TSan, Coverage build types); -DQBS_LOCK_RANK_CHECKS=ON forces it on in
// any build type.
#if defined(QBS_LOCK_RANK_CHECKS) || !defined(NDEBUG)
#define QBS_LOCK_RANK_CHECKS_ENABLED_ 1
#else
#define QBS_LOCK_RANK_CHECKS_ENABLED_ 0
#endif

namespace qbs {

/// The project-wide lock order: a thread may acquire a mutex only while
/// every lock it already holds has a STRICTLY LOWER rank. The table below
/// is the single source of truth; docs/ARCHITECTURE.md § Concurrency
/// contracts explains each edge. Gaps between values leave room for new
/// locks without renumbering.
///
/// Ordering constraints encoded here (outer → inner):
///   * kIndex → kSearcherPool       (ServeQuery holds the index reader
///                                    lock while leasing a searcher)
///   * kIndex → kResultCacheShard   (cache lookup/insert/clear run inside
///                                    the index reader/writer section)
///   * kIndex → kThreadPool         (ApplyUpdates runs ParallelFor — and
///                                    thus the pool's job queue — under
///                                    the index writer lock)
/// Corollary: ParallelFor iterations must only acquire ranks above kIndex
/// (the caller runs them as worker 0 under whatever it holds); the pool
/// lock itself is never held while an iteration runs.
enum class LockRank : int {
  /// Exempt from ordering checks (re-entrancy is still checked). For
  /// tests and short-lived local mutexes that never nest with ranked ones.
  kUnranked = 0,
  /// QueryServer::mu_ — stop/drain handshake + connection bookkeeping.
  kServerLifecycle = 10,
  /// AdmissionGate::mu_ — inflight/queue counters and the busy decision.
  kAdmission = 20,
  /// QueryServer::index_mu_ — readers: the whole query critical section
  /// (cache lookup → execute → cache insert); writer: ApplyUpdates +
  /// cache clear.
  kIndex = 30,
  /// QbsIndex::batch_searchers_mu_ — the QueryBatch searcher pool.
  kSearcherPool = 40,
  /// ResultCache::Shard::mu — one shard's LRU list/map/byte budget.
  kResultCacheShard = 50,
  /// thread_pool.cc's pool lock — the job queue, helper shutdown and each
  /// ParallelFor call's worker hand-out, join count and first exception.
  kThreadPool = 60,
};

/// Stable diagnostic name for a rank (abort messages name both sides of
/// an inversion with these strings).
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "kUnranked";
    case LockRank::kServerLifecycle:
      return "kServerLifecycle";
    case LockRank::kAdmission:
      return "kAdmission";
    case LockRank::kIndex:
      return "kIndex";
    case LockRank::kSearcherPool:
      return "kSearcherPool";
    case LockRank::kResultCacheShard:
      return "kResultCacheShard";
    case LockRank::kThreadPool:
      return "kThreadPool";
  }
  return "k<invalid>";
}

/// True when this build aborts on rank inversions / re-entrant
/// acquisition (tests use this to skip death tests in Release).
constexpr bool LockRankChecksEnabled() {
  return QBS_LOCK_RANK_CHECKS_ENABLED_ != 0;
}

namespace sync_internal {

/// Validates `rank` against the calling thread's held-lock stack (aborts
/// on re-entrancy or a rank >= an already-held rank; kUnranked skips the
/// order check) and records the acquisition. `check_order` is false for
/// try-locks, which cannot deadlock by blocking.
void PushLockRank(const void* mu, LockRank rank, bool check_order);
/// Removes `mu` from the calling thread's held-lock stack (aborts if it
/// was never recorded — a push/pop pairing bug).
void PopLockRank(const void* mu);

}  // namespace sync_internal

// ---- Annotated wrappers ---------------------------------------------------

class CondVar;

/// An exclusive mutex carrying a capability annotation and a LockRank.
/// Prefer the scoped MutexLock guard over manual Lock()/Unlock().
class QBS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kUnranked) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QBS_ACQUIRE() {
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PushLockRank(this, rank_, /*check_order=*/true);
#endif
    mu_.lock();
  }

  void Unlock() QBS_RELEASE() {
    mu_.unlock();
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PopLockRank(this);
#endif
  }

  bool TryLock() QBS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PushLockRank(this, rank_, /*check_order=*/false);
#endif
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockRank rank_;
};

/// A reader-writer mutex; same capability + rank discipline as Mutex.
/// Use WriterLock / ReaderLock guards.
class QBS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank = LockRank::kUnranked) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() QBS_ACQUIRE() {
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PushLockRank(this, rank_, /*check_order=*/true);
#endif
    mu_.lock();
  }

  void Unlock() QBS_RELEASE() {
    mu_.unlock();
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PopLockRank(this);
#endif
  }

  void LockShared() QBS_ACQUIRE_SHARED() {
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PushLockRank(this, rank_, /*check_order=*/true);
#endif
    mu_.lock_shared();
  }

  void UnlockShared() QBS_RELEASE_SHARED() {
    mu_.unlock_shared();
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PopLockRank(this);
#endif
  }

  bool TryLock() QBS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PushLockRank(this, rank_, /*check_order=*/false);
#endif
    return true;
  }

  bool TryLockShared() QBS_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
#if QBS_LOCK_RANK_CHECKS_ENABLED_
    sync_internal::PushLockRank(this, rank_, /*check_order=*/false);
#endif
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
};

/// Scoped exclusive lock on a Mutex.
class QBS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) QBS_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() QBS_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class QBS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) QBS_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() QBS_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class QBS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) QBS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() QBS_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to Mutex. This is the project's one sanctioned
/// thread-safety-analysis seam: the wait methods release and re-acquire
/// `mu` inside std::condition_variable, which the analysis cannot model.
/// They are annotated QBS_REQUIRES(mu) so every caller must prove it holds
/// the lock, and call sites use explicit predicate loops:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);   // ready_ reads analyzed under mu_
///
/// The waited-on mutex stays on the lock-rank stack for the duration of
/// the wait (it is re-acquired before Wait returns, and a blocked thread
/// cannot introduce a new ordering edge).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified; `mu` is held
  /// again on return. Spurious wakeups happen: always re-check the
  /// predicate in a loop.
  void Wait(Mutex& mu) QBS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// As Wait(), giving up at `deadline`. Returns false iff the deadline
  /// passed before a notification (the predicate may still have become
  /// true — re-check it).
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      QBS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  /// As WaitUntil() with a relative timeout.
  bool WaitFor(Mutex& mu, int64_t timeout_ms) QBS_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(timeout_ms));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace qbs

#endif  // QBS_UTIL_SYNC_H_
