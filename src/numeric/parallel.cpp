#include "numeric/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "obs/instrument.hpp"
#include "support/thread_annotations.hpp"

namespace fluxfp::numeric {
namespace {

/// True on pool workers, and on the calling thread while it executes
/// chunks of a batch. Nested parallel_for calls observe it and degrade to
/// serial inline execution instead of re-entering the pool.
thread_local bool t_in_parallel_region = false;

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// FLUXFP_THREADS env var, or hardware concurrency when unset/garbage.
std::size_t resolve_default_thread_count() {
  if (const char* env = std::getenv("FLUXFP_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') {
      return v == 0 ? hardware_threads() : static_cast<std::size_t>(v);
    }
  }
  return hardware_threads();
}

/// The default, resolved on first use: a getenv plus a
/// hardware_concurrency() read cost microseconds, and every parallel_for
/// of a process that never calls set_thread_count() would pay them.
std::size_t default_thread_count() {
  static const std::size_t resolved = resolve_default_thread_count();
  return resolved;
}

/// 0 = unresolved (fall back to default_thread_count()).
std::atomic<std::size_t> g_requested{0};

/// One cooperative batch: workers and the caller pull chunk indices from
/// `next` until the range drains. The struct lives on the caller's stack;
/// the caller does not return from run() until every worker has finished
/// touching it.
struct Batch {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk_size = 1;
  std::size_t chunk_count = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};     // fluxfp-lint: allow(atomics-policy) -- lock-free chunk ticket; taking error_mutex per chunk would serialize the parallel region
  std::atomic<bool> cancelled{false};   // fluxfp-lint: allow(atomics-policy) -- advisory early-exit flag polled per chunk; a stale read costs one extra chunk, never correctness
  support::Mutex error_mutex;
  std::exception_ptr error FLUXFP_GUARDED_BY(error_mutex);

  void work() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunk_count || cancelled.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t lo = begin + c * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      try {
        (*fn)(lo, hi);
      } catch (...) {
        support::MutexLock lock(error_mutex);
        if (!error) {
          error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// The first exception thrown by any chunk, read under the lock. The
  /// check-in barrier in Pool::run has already happened when the caller
  /// asks, but the lock keeps one access regime (and Clang satisfied).
  std::exception_ptr take_error() {
    support::MutexLock lock(error_mutex);
    return std::exchange(error, nullptr);
  }
};

/// Persistent worker pool. Batches are serialized: run() publishes one
/// batch, every worker processes it exactly once (possibly finding no
/// chunks left), and run() returns only after all workers have checked
/// back in — so the stack-allocated Batch never outlives its region.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Batch& batch, std::size_t workers_wanted) {
    support::UniqueLock lock(mutex_);
    ensure_workers(workers_wanted);
    current_ = &batch;
    ++generation_;
    active_ = workers_.size();
    lock.unlock();
    work_cv_.notify_all();

    t_in_parallel_region = true;
    batch.work();
    t_in_parallel_region = false;

    lock.lock();
    done_cv_.wait(lock.native(), [&] {
      mutex_.assert_held();  // predicate runs under the re-acquired lock
      return active_ == 0;
    });
    current_ = nullptr;
  }

  ~Pool() {
    // Move the handles out under the lock, then join without it: after
    // stop_ is set no worker touches workers_, and keeping the join outside
    // the critical section means teardown needs no analysis suppression.
    std::vector<std::thread> workers;
    {
      support::MutexLock lock(mutex_);
      stop_ = true;
      ++generation_;
      workers.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& t : workers) {
      t.join();
    }
  }

 private:
  Pool() = default;

  /// Grows (never shrinks) the worker set under the held lock. Extra
  /// workers beyond a batch's wanted count just find no chunks — keeping
  /// the check-in protocol uniform across thread-count changes.
  void ensure_workers(std::size_t wanted) FLUXFP_REQUIRES(mutex_) {
    while (workers_.size() < wanted) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    t_in_parallel_region = true;
    std::uint64_t seen = 0;
    for (;;) {
      Batch* batch = nullptr;
      {
        support::UniqueLock lock(mutex_);
        work_cv_.wait(lock.native(), [&] {
          mutex_.assert_held();  // predicate runs under the lock
          return stop_ || generation_ != seen;
        });
        if (stop_) {
          return;
        }
        seen = generation_;
        batch = current_;
      }
      if (batch != nullptr) {
        batch->work();
      }
      {
        support::MutexLock lock(mutex_);
        if (--active_ == 0) {
          done_cv_.notify_one();
        }
      }
    }
  }

  support::Mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_ FLUXFP_GUARDED_BY(mutex_);
  Batch* current_ FLUXFP_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ FLUXFP_GUARDED_BY(mutex_) = 0;
  std::size_t active_ FLUXFP_GUARDED_BY(mutex_) = 0;
  bool stop_ FLUXFP_GUARDED_BY(mutex_) = false;
};

}  // namespace

SerialRegionGuard::SerialRegionGuard() : prev_(t_in_parallel_region) {
  t_in_parallel_region = true;
  // Guard count tracks how often callers opt out of the pool; the number of
  // guard-holding threads is a worker-layout fact, hence kScheduling.
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_numeric_serial_region_entries_total",
                               "SerialRegionGuard scopes entered");
}

SerialRegionGuard::~SerialRegionGuard() { t_in_parallel_region = prev_; }

std::size_t thread_count() {
  const std::size_t requested = g_requested.load(std::memory_order_relaxed);
  return requested != 0 ? requested : default_thread_count();
}

void set_thread_count(std::size_t count) {
  g_requested.store(count == 0 ? default_thread_count() : count,
                    std::memory_order_relaxed);
}

void parallel_for_ranges(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  const std::size_t count = end - begin;
  // Total call count is content-driven (stable across layouts); how the
  // calls split between the inline-serial and pooled paths is not.
  FLUXFP_OBS_COUNTER_INC("fluxfp_numeric_parallel_calls_total",
                         "parallel_for regions entered");
  // The serial cases are tested first: a worker thread or a one-index
  // range never needs the thread count.
  const bool serial = t_in_parallel_region || count == 1;
  const std::size_t threads = serial ? 1 : thread_count();
  if (threads <= 1) {
    FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_numeric_parallel_serial_calls_total",
                                 "Regions degraded to serial inline");
    fn(begin, end);
    return;
  }
  Batch batch;
  batch.begin = begin;
  batch.end = end;
  // ~4 chunks per thread balances scheduling slack against dispatch cost;
  // chunk geometry never affects results, only which thread computes what.
  batch.chunk_size = std::max<std::size_t>(1, count / (threads * 4));
  batch.chunk_count =
      (count + batch.chunk_size - 1) / batch.chunk_size;
  batch.fn = &fn;
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_numeric_parallel_pooled_calls_total",
                               "Regions fanned out over the pool");
  FLUXFP_OBS_COUNTER_ADD_SCHED("fluxfp_numeric_parallel_chunks_total",
                               "Chunks dispatched to pool workers",
                               batch.chunk_count);
  // The caller is one of the workers.
  Pool::instance().run(batch, threads - 1);
  if (std::exception_ptr err = batch.take_error()) {
    std::rethrow_exception(err);
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_ranges(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      fn(i);
    }
  });
}

}  // namespace fluxfp::numeric
