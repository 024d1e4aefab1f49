// Work-sharing thread pool and the ParallelFor primitive built on it.
//
// The experiment pipelines (exp/experiments.cc) are embarrassingly parallel
// across repetitions: every repetition derives its own Rng stream from
// `seed + rep`, so repetitions can run on any thread in any order as long as
// their results are merged back in repetition order. ParallelFor provides
// exactly that contract:
//
//   * body(i) is invoked exactly once for every i in [0, n), on an
//     unspecified thread;
//   * callers store per-index results into pre-sized slots and reduce them
//     in index order afterwards, which makes the output bit-identical to a
//     serial `for` loop at any thread count;
//   * the first (lowest-index) exception thrown by a body is rethrown on the
//     calling thread once all in-flight work has drained.
//
// Thread count resolution: an explicit `num_jobs` argument wins, otherwise
// the ITRIM_THREADS environment variable, otherwise the hardware
// concurrency. `num_jobs == 1` runs inline on the caller with no pool
// involvement, so a pool of one is the serial path by construction.
//
// Workers record no metrics and read no clock.
#ifndef ITRIM_COMMON_THREAD_POOL_H_
#define ITRIM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace itrim {

/// \brief Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins all workers (via Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues `fn`; the future resolves when it has run (or carries
  /// its exception). After Shutdown() the task runs inline on the calling
  /// thread instead — a task enqueued while the workers are exiting would
  /// otherwise be silently dropped and its future would never resolve
  /// (tests/common/thread_pool_test.cc pins this).
  std::future<void> Submit(std::function<void()> fn);

  /// \brief Stops accepting queued execution, drains already-queued tasks
  /// and joins all workers. Idempotent; not safe to race with itself from
  /// two threads (the destructor is the usual caller).
  void Shutdown();

  /// \brief Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// \brief Process-wide shared pool, lazily created with
  /// DefaultNumThreads() workers. Never returns null.
  static ThreadPool* Global();

  /// \brief True when the calling thread is one of this process's pool
  /// workers (used to serialize nested ParallelFor calls).
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// \brief Resolves the default parallelism: ITRIM_THREADS when set to a
/// positive integer, otherwise std::thread::hardware_concurrency(), never
/// less than 1.
int DefaultNumThreads();

/// \brief Runs body(i) for every i in [0, n) across up to `num_jobs`
/// threads (0 = DefaultNumThreads()).
///
/// Indices are claimed dynamically from a shared counter, so bodies of
/// uneven cost balance across threads. The call returns only after every
/// invoked body has finished. Exceptions: if any body throws, remaining
/// unclaimed indices are abandoned and the pending exception with the
/// lowest index is rethrown here. Nested calls from inside a pool worker
/// run serially inline (the pool cannot wait on itself).
void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 int num_jobs = 0);

/// \brief Runs body(begin, end) over contiguous shards covering [0, n).
///
/// A shard is one scheduling unit: for fleets of thousands of cheap,
/// same-shaped items (e.g. one session round per item), claiming them one
/// by one through ParallelFor's shared counter spends more time on the
/// atomic than on the work. Sharding amortizes the claim over `shard_size`
/// items while keeping the same determinism contract — shard boundaries
/// are a pure function of (n, shard_size), every index is visited exactly
/// once, and callers still reduce per-index slots in index order.
/// `shard_size == 0` picks a size that yields ~4 shards per job (enough
/// slack for dynamic balancing without counter contention).
void ParallelForShards(size_t n, size_t shard_size,
                       const std::function<void(size_t, size_t)>& body,
                       int num_jobs = 0);

}  // namespace itrim

#endif  // ITRIM_COMMON_THREAD_POOL_H_
