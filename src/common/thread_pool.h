#ifndef ICROWD_COMMON_THREAD_POOL_H_
#define ICROWD_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace icrowd {

/// One-shot fan-out for the offline personalized-PageRank precompute
/// (Algorithm 1's offline phase), the only parallel loop inside a campaign.
/// The online path runs one thread per request; hosts scale out by shard
/// (DESIGN.md §7). Not instantiable: there is no long-lived pool.
class ThreadPool {
 public:
  ThreadPool() = delete;

  /// Spawns up to `num_threads` fresh threads (0 means hardware
  /// concurrency), runs fn(i) for i in [0, count), joins, and rethrows the
  /// first exception fn raised; remaining indices are skipped after a
  /// failure. With one thread (or one index) fn runs inline.
  static void ParallelFor(size_t count, size_t num_threads,
                          const std::function<void(size_t)>& fn);
};

}  // namespace icrowd

#endif  // ICROWD_COMMON_THREAD_POOL_H_
