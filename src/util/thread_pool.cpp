#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "util/check.hpp"

namespace s2a::util {

namespace {

thread_local bool tl_on_worker_thread = false;

int env_threads() {
  const char* s = std::getenv("S2A_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return 0;  // not a number: ignore
  if (v < 1) return 0;
  return v > 256 ? 256 : static_cast<int>(v);
}

int resolve_threads(int requested) {
  if (requested > 0) return requested > 256 ? 256 : requested;
  const int env = env_threads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

// Shared state of one parallel_for call. Helpers hold it via shared_ptr
// so a helper task that is dequeued after the loop already finished
// touches only the atomics (it sees next >= chunks and exits).
struct ThreadPool::Bulk {
  std::size_t begin = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  std::size_t end = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::condition_variable done;
  std::exception_ptr error;  // first captured exception (guarded by mu)
};

bool ThreadPool::on_worker_thread() { return tl_on_worker_thread; }

ThreadPool::ThreadPool(int threads) : threads_(resolve_threads(threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main() {
  tl_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t ThreadPool::num_chunks(std::size_t begin, std::size_t end,
                                   std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t n = end - begin;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (n + g - 1) / g;
}

void ThreadPool::run_bulk(Bulk& bulk, const ChunkFn* fn) {
  // `fn` lives on the caller's frame. It is only dereferenced for chunks
  // claimed before completion — the caller cannot return (and invalidate
  // it) until `finished == chunks`, and a helper dequeued after that
  // exits at the `c >= chunks` check without touching it.
  for (;;) {
    const std::size_t c = bulk.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= bulk.chunks) return;
    if (!bulk.cancelled.load(std::memory_order_relaxed)) {
      const std::size_t lo = bulk.begin + c * bulk.grain;
      std::size_t hi = lo + bulk.grain;
      if (hi > bulk.end) hi = bulk.end;
      try {
        (*fn)(lo, hi, c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(bulk.mu);
        if (bulk.error == nullptr) bulk.error = std::current_exception();
        bulk.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    // acq_rel: the caller's acquire load of `finished` must observe every
    // side effect of every chunk, not just the last one.
    if (bulk.finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        bulk.chunks) {
      std::lock_guard<std::mutex> lk(bulk.mu);
      bulk.done.notify_all();
    }
  }
}

void ThreadPool::parallel_for_chunks(std::size_t begin, std::size_t end,
                                     std::size_t grain, const ChunkFn& fn) {
  S2A_CHECK(grain >= 1);
  const std::size_t chunks = num_chunks(begin, end, grain);
  if (chunks == 0) return;

  // Inline execution: single-threaded pool, a single chunk, or a nested
  // call from inside a pool task (running nested loops inline is what
  // makes nested submission deadlock-free).
  if (threads_ <= 1 || chunks == 1 || tl_on_worker_thread) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = lo + grain < end ? lo + grain : end;
      fn(lo, hi, c);  // exceptions propagate directly
    }
    return;
  }

  auto bulk = std::make_shared<Bulk>();
  bulk->begin = begin;
  bulk->end = end;
  bulk->grain = grain;
  bulk->chunks = chunks;

  // Enqueue at most workers (= size-1) helpers; the caller claims chunks
  // too, so no task ever just waits.
  const std::size_t helpers =
      std::min<std::size_t>(workers_.size(), chunks - 1);
  const ChunkFn* fn_ptr = &fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < helpers; ++i)
      queue_.emplace_back([this, bulk, fn_ptr] { run_bulk(*bulk, fn_ptr); });
  }
  if (helpers == 1)
    cv_.notify_one();
  else if (helpers > 1)
    cv_.notify_all();

  run_bulk(*bulk, fn_ptr);

  {
    std::unique_lock<std::mutex> lk(bulk->mu);
    bulk->done.wait(lk, [&] {
      return bulk->finished.load(std::memory_order_acquire) == bulk->chunks;
    });
  }
  if (bulk->error) std::rethrow_exception(bulk->error);
}

void ThreadPool::post(std::function<void()> task) {
  S2A_CHECK(!workers_.empty());
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, const IndexFn& fn) {
  parallel_for_chunks(begin, end, grain,
                      [&fn](std::size_t lo, std::size_t hi, std::size_t) {
                        for (std::size_t i = lo; i < hi; ++i) fn(i);
                      });
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_global_threads(int threads) {
  std::unique_ptr<ThreadPool> fresh = std::make_unique<ThreadPool>(threads);
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool = std::move(fresh);  // old pool joins its workers here
}

}  // namespace s2a::util
