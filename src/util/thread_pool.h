// ParallelFor: a chunked, dynamically balanced loop over persistent helpers.
//
// Iterations are handed out in chunks from one shared cursor, so skewed
// iteration costs (one heavy query in a batch, a block of high-degree
// vertices on a labelling pull level) rebalance by themselves. The helpers
// are process-wide persistent threads, so repeated calls (QueryBatch) pay
// no thread-spawn cost. The caller runs as worker 0 and drains the cursor
// itself, then waits only for helpers that joined, so nested and
// concurrent calls cannot deadlock.

#ifndef QBS_UTIL_THREAD_POOL_H_
#define QBS_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace qbs {

// Runs fn(i, worker_index) for every i in [0, count) and blocks until all
// iterations complete. `num_threads`: 0 = hardware concurrency, 1 = inline
// on the calling thread, otherwise the exact worker count. `worker_index`
// is in [0, min(EffectiveThreads(num_threads), count)) and lets callers
// keep per-worker scratch state (e.g. a reusable BFS depth array); two
// iterations with the same worker index never run at the same time.
//
// If an iteration throws, no further chunks are handed out; once every
// worker has returned, the first exception is rethrown to the caller.
void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t index, size_t worker)>& fn);

// Effective number of threads ParallelFor would use for the given request.
size_t EffectiveThreads(size_t num_threads);

}  // namespace qbs

#endif  // QBS_UTIL_THREAD_POOL_H_
