#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <utility>

namespace itrim {

namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_) {
      queue_.push(std::move(task));
      lock.unlock();
      cv_.notify_one();
      return future;
    }
    // Stopped pool: the workers may already have seen an empty queue and
    // exited, so an enqueued task could sit unexecuted forever and this
    // future would never resolve. Run it inline instead — same completion
    // contract, no hang.
  }
  task();
  return future;
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // packaged_task routes exceptions into the future
  }
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool pool(DefaultNumThreads());
  return &pool;
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

int DefaultNumThreads() {
  const char* env = std::getenv("ITRIM_THREADS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 int num_jobs) {
  if (n == 0) return;
  int jobs = num_jobs > 0 ? num_jobs : DefaultNumThreads();
  jobs = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(jobs), n));
  // Serial paths: explicit single job, a single index, or a nested call
  // from inside a pool worker (waiting on the pool from a pool thread
  // could deadlock once every worker does it).
  if (jobs <= 1 || ThreadPool::InWorker()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  size_t err_index = std::numeric_limits<size_t>::max();
  std::exception_ptr err;

  auto drain = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // The caller is one of the `jobs` runners; the rest come from the shared
  // pool, topped up with dedicated threads when the request exceeds the
  // pool size (an explicit --jobs larger than the ITRIM_THREADS default
  // must not be silently capped). Each runner loops over the claim
  // counter, so progress is guaranteed even if the pool is saturated and
  // no extra worker ever picks a task up.
  ThreadPool* pool = ThreadPool::Global();
  const int helpers = jobs - 1;
  const int pooled = std::min(helpers, pool->num_threads());
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(pooled));
  for (int j = 0; j < pooled; ++j) {
    futures.push_back(pool->Submit(drain));
  }
  std::vector<std::thread> extra;
  extra.reserve(static_cast<size_t>(helpers - pooled));
  for (int j = pooled; j < helpers; ++j) {
    extra.emplace_back([&drain] {
      t_in_pool_worker = true;  // nested ParallelFor stays serial here too
      drain();
    });
  }
  drain();
  for (std::future<void>& f : futures) f.wait();
  for (std::thread& t : extra) t.join();
  if (err) std::rethrow_exception(err);
}

void ParallelForShards(size_t n, size_t shard_size,
                       const std::function<void(size_t, size_t)>& body,
                       int num_jobs) {
  if (n == 0) return;
  int jobs = num_jobs > 0 ? num_jobs : DefaultNumThreads();
  if (shard_size == 0) {
    // ~4 shards per job balances uneven shard costs without reintroducing
    // per-item claim traffic.
    shard_size = std::max<size_t>(1, n / (4 * static_cast<size_t>(jobs)));
  }
  const size_t num_shards = (n + shard_size - 1) / shard_size;
  ParallelFor(
      num_shards,
      [&](size_t shard) {
        size_t begin = shard * shard_size;
        size_t end = std::min(n, begin + shard_size);
        body(begin, end);
      },
      num_jobs);
}

}  // namespace itrim
