// Deterministic chunked thread pool for the Monte Carlo / sweep hot
// paths. Design rules (docs/PARALLELISM.md):
//
//  - No work stealing and no per-thread state leaks into results: work is
//    split into fixed-size chunks whose decomposition depends only on
//    (n, grain), never on the thread count. Workers pull chunk indices
//    from a shared counter, so *which* thread runs a chunk varies — but
//    every chunk writes only to its own slice of caller-owned state, so
//    results are bit-identical at any thread count.
//  - The calling thread participates, so a 1-thread pool is plain serial
//    execution with zero synchronization on the work items.
//  - Every job wakes the whole pool and waits for each worker to check
//    in once, so per-job overhead grows with pool width (microseconds)
//    rather than with work. That is the price of keeping the in-flight
//    job on the submitter's stack with a provably raceless handshake;
//    jobs are expected to be millisecond-scale (20k-sample MC chunks,
//    wafer maps), where this cost is noise.
//  - Exceptions thrown by chunk bodies are captured (first one wins),
//    remaining chunks are abandoned, and the exception is rethrown on the
//    calling thread.
//
// The default thread count honours the CNTI_THREADS environment variable
// and falls back to std::thread::hardware_concurrency().
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace cnti::numerics {

class ThreadPool {
 public:
  /// Chunk body: invoked as body(begin, end) over [begin, end) item
  /// indices; each invocation covers one chunk.
  using ChunkBody = std::function<void(std::size_t, std::size_t)>;

  /// threads == 0 picks default_thread_count().
  explicit ThreadPool(int threads = 0) {
    CNTI_EXPECTS(threads >= 0, "threads must be >= 0");
    const int n = threads > 0 ? threads : default_thread_count();
    CNTI_EXPECTS(n >= 1 && n <= 4096, "unreasonable thread count");
    workers_.reserve(static_cast<std::size_t>(n - 1));
    try {
      for (int i = 0; i < n - 1; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    } catch (...) {
      // Thread exhaustion mid-spawn: join what started, then surface the
      // exception instead of letting ~thread() call std::terminate.
      shutdown();
      throw;
    }
  }

  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width including the calling thread.
  int thread_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// True while the calling thread is executing a chunk body (of any
  /// pool). Nested parallel_chunks calls in this state run serially, so
  /// callers can skip building a private pool they would not use.
  static bool in_parallel_region() { return inside_chunk_body(); }

  /// CNTI_THREADS env override (clamped to [1, 256]), else hardware
  /// concurrency, else 1.
  static int default_thread_count() {
    if (const char* env = std::getenv("CNTI_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1) return static_cast<int>(v > 256 ? 256 : v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }

  /// Runs body(begin, end) over [0, n) split into ceil(n / grain) chunks
  /// of `grain` items (last chunk ragged). Blocks until every chunk has
  /// run; rethrows the first chunk exception. Reentrant calls from inside
  /// a chunk body run serially on the calling thread (the pool is not a
  /// nested scheduler). Concurrent submissions from different application
  /// threads are safe: they serialize on the pool, one job at a time —
  /// relevant for the shared global_pool() behind every threads==0 knob.
  void parallel_chunks(std::size_t n, std::size_t grain,
                       const ChunkBody& body) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t n_chunks = (n + grain - 1) / grain;
    static const obs::Counter jobs = obs::counter("cnti.pool.jobs");
    static const obs::Counter chunk_count = obs::counter("cnti.pool.chunks");
    static const obs::Histogram job_hist = obs::histogram("cnti.pool.job_ns");
    jobs.add();
    chunk_count.add(n_chunks);
    const obs::ObsSpan job_span("pool.job", "pool", job_hist);
    if (thread_count() == 1 || n_chunks == 1 || inside_chunk_body()) {
      for (std::size_t c = 0; c < n_chunks; ++c) {
        body(c * grain, std::min(c * grain + grain, n));
      }
      return;
    }

    // One submitter at a time: the worker handshake (job_ / generation_ /
    // busy_workers_) tracks a single in-flight job, and `job` lives on
    // this frame's stack. Chunk bodies never reach here (reentrant calls
    // took the serial path above), so this cannot self-deadlock.
    std::lock_guard<std::mutex> submit_lock(submit_mutex_);

    Job job;
    job.n = n;
    job.grain = grain;
    job.n_chunks = n_chunks;
    job.body = &body;
    job.t_submit = obs::span_start();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      ++generation_;
      busy_workers_ = static_cast<int>(workers_.size());
    }
    wake_cv_.notify_all();
    run_chunks(job);  // the caller is one of the execution lanes
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return busy_workers_ == 0; });
      job_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  struct Job {
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t n_chunks = 0;
    const ChunkBody* body = nullptr;
    std::uint64_t t_submit = 0;  // obs: set at submission while timing
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  static bool& inside_chunk_body() {
    thread_local bool inside = false;
    return inside;
  }

  static void run_chunks(Job& job) {
    static const obs::Histogram wait_hist =
        obs::histogram("cnti.pool.queue_wait_ns");
    static const obs::Histogram run_hist = obs::histogram("cnti.pool.run_ns");
    const std::uint64_t t_run0 = obs::span_start();
    if (t_run0 != 0 && job.t_submit != 0 && t_run0 > job.t_submit) {
      wait_hist.record_ns(t_run0 - job.t_submit);
    }
    inside_chunk_body() = true;
    for (std::size_t c = job.next.fetch_add(1); c < job.n_chunks;
         c = job.next.fetch_add(1)) {
      if (job.failed.load(std::memory_order_relaxed)) break;
      try {
        const std::size_t begin = c * job.grain;
        const std::size_t end = std::min(begin + job.grain, job.n);
        (*job.body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    inside_chunk_body() = false;
    obs::span_end("pool.run", "pool", t_run0, run_hist);
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        job = job_;
      }
      if (job) run_chunks(*job);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --busy_workers_;
      }
      done_cv_.notify_one();
    }
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int busy_workers_ = 0;
  bool stop_ = false;
};

/// Process-wide pool sized by default_thread_count(), lazily constructed.
/// Library entry points with a `threads` knob use this when the knob is 0
/// and a private pool otherwise.
inline ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

/// Convenience wrapper: run `body(begin, end)` chunks over [0, n).
/// threads == 0 uses the shared global pool; any other value runs on a
/// transient private pool of that many threads, capped at the chunk
/// count (spawn/join per call — meant for tests, benches and explicit
/// one-off widths; steady-state code should size the global pool via
/// CNTI_THREADS and pass 0). A one-chunk job, and any call from inside a
/// chunk body, runs on the calling thread without spawning anything:
/// idle workers and nested parallelism would only cost threads.
inline void parallel_chunks(std::size_t n, std::size_t grain,
                            const ThreadPool::ChunkBody& body,
                            int threads = 0) {
  CNTI_EXPECTS(threads >= 0, "threads must be >= 0");
  if (threads == 0) {
    global_pool().parallel_chunks(n, grain, body);
    return;
  }
  if (n == 0) return;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = (n + g - 1) / g;
  const int width = ThreadPool::in_parallel_region()
                        ? 1
                        : static_cast<int>(std::min<std::size_t>(
                              chunks, static_cast<std::size_t>(threads)));
  // The chunk count above only sizes the pool; the chunk boundaries are
  // still cut by ThreadPool::parallel_chunks alone, and a 1-thread pool
  // spawns no workers and takes its serial path.
  ThreadPool pool(width);
  pool.parallel_chunks(n, grain, body);
}

}  // namespace cnti::numerics
