// Shared fixed-size thread pool for the library's data-parallel hot
// paths (voxelization, convolution forwards, federated client updates).
//
// Design goals, in order:
//  1. Determinism — parallel_for partitions [begin, end) into chunks of
//     at most `grain` indices, and every index is executed by exactly one
//     task. Callers that keep per-chunk state and merge it in chunk-index
//     order get results that are bit-exact across thread counts, because
//     the chunking depends only on (begin, end, grain), never on how the
//     OS schedules the workers.
//  2. Safety — an exception thrown by any task is captured, remaining
//     chunks are skipped, and the first exception is rethrown on the
//     calling thread once the loop has quiesced. Calling parallel_for
//     from inside a pool task degrades to inline serial execution, so
//     nested parallelism can never deadlock.
//  3. Graceful degradation — a pool of size 1 (or the S2A_THREADS=1
//     environment override) executes everything inline on the calling
//     thread with no queue traffic, so single-threaded runs behave
//     exactly like the pre-pool code. ThreadPool(n) means exactly n
//     slots even on a host with fewer cores; callers that report
//     speedups check the core count themselves.
//
// The calling thread always participates in executing chunks (it is
// counted in size()), so ThreadPool(n) spawns n-1 workers and a
// parallel_for never blocks a core just to wait.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace s2a::util {

class ThreadPool {
 public:
  /// Called once per index in [begin, end).
  using IndexFn = std::function<void(std::size_t)>;
  /// Called once per chunk with [chunk_begin, chunk_end) and the chunk's
  /// index in 0..num_chunks-1 (stable for a given begin/end/grain).
  using ChunkFn =
      std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// threads > 0: exact concurrency (including the calling thread).
  /// threads <= 0: the S2A_THREADS environment variable if set to a
  /// positive integer, else std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency, including the calling thread (>= 1).
  int size() const { return threads_; }

  /// True on a thread owned by any ThreadPool (used to run nested
  /// parallel loops inline instead of deadlocking on the queue).
  static bool on_worker_thread();

  /// Runs fn(i) for every i in [begin, end), sharded into chunks of at
  /// most `grain` indices. Blocks until every index has run (or an
  /// exception has been captured and the loop has quiesced). Rethrows
  /// the first exception on the calling thread.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const IndexFn& fn);

  /// Chunk-granular variant: fn(chunk_begin, chunk_end, chunk_index).
  /// Use this when each task accumulates into chunk-local state that the
  /// caller merges in chunk-index order for deterministic reductions.
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           std::size_t grain, const ChunkFn& fn);

  /// Number of chunks parallel_for_chunks will produce (0 when empty).
  static std::size_t num_chunks(std::size_t begin, std::size_t end,
                                std::size_t grain);

  /// Enqueues a standalone task on a worker thread and returns
  /// immediately (used by the pipelined engine to run the sense chain
  /// concurrently with the caller). Requires size() >= 2 — a
  /// single-threaded pool has no worker to run it. The task must not
  /// throw (there is no caller frame to rethrow into); arrange its own
  /// completion signalling (promise/future, queue close, ...). Pending
  /// tasks are drained before the destructor joins.
  void post(std::function<void()> task);

 private:
  struct Bulk;
  void worker_main();
  void run_bulk(Bulk& bulk, const ChunkFn* fn);

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// Process-wide pool shared by the parallel hot paths. Constructed
/// lazily on first use; size comes from S2A_THREADS, else
/// hardware_concurrency. Its size is the only parallelism decision: the
/// sharded hot paths run serially when size() <= 1 (or their work is
/// below its break-even threshold) and shard otherwise, whatever the
/// core count. A pool larger than the host's cores is oversubscribed on
/// purpose — pick the count you mean; results are bit-exact either way,
/// only the schedule changes.
ThreadPool& global_pool();

/// Replaces the global pool with one of the given size (<= 0 restores
/// the environment/hardware default). Must not race with in-flight
/// parallel work — intended for tests and benchmark harnesses sweeping
/// thread counts.
void set_global_threads(int threads);

/// RAII thread-count override for tests/benches:
///   { ScopedGlobalThreads t(4); ... }  // restores the default on exit
class ScopedGlobalThreads {
 public:
  explicit ScopedGlobalThreads(int threads) { set_global_threads(threads); }
  ~ScopedGlobalThreads() { set_global_threads(0); }
  ScopedGlobalThreads(const ScopedGlobalThreads&) = delete;
  ScopedGlobalThreads& operator=(const ScopedGlobalThreads&) = delete;
};

}  // namespace s2a::util
