#pragma once

#include <cstddef>
#include <functional>

namespace fluxfp::numeric {

/// Worker count the parallel engine will use (always >= 1). Resolution
/// order: the last set_thread_count() value, else the default: the
/// FLUXFP_THREADS environment variable, else
/// std::thread::hardware_concurrency(). The default is resolved once, on
/// first use; changing FLUXFP_THREADS after that has no effect. A count of
/// 1 means strictly serial execution — no pool is ever spun up.
std::size_t thread_count();

/// Overrides the worker count for subsequent parallel_for calls. 0 means
/// "auto": back to the default above (FLUXFP_THREADS as read on first use,
/// else hardware_concurrency). Call between parallel regions, not from
/// inside one.
void set_thread_count(std::size_t count);

/// Runs fn(i) once for every i in [begin, end), fanned out over the
/// persistent thread pool in contiguous chunks.
///
/// Determinism contract: fn must be a pure function of its index over
/// shared *read-only* state, writing only to per-index output slots. Under
/// that contract the results are bit-identical for any thread count —
/// every index is evaluated by exactly the same arithmetic, and merging is
/// by index position, never by completion order. Draw all randomness
/// before the call, on the calling thread.
///
/// The first exception thrown by fn is captured and rethrown on the
/// calling thread after the region drains (remaining chunks are skipped).
/// Nested calls from inside a worker run serially inline, so helpers that
/// parallelize internally stay safe to call from parallel regions.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(lo, hi) is invoked over disjoint subranges that
/// exactly cover [begin, end). Use when per-index dispatch overhead
/// matters; the same determinism contract applies per subrange.
void parallel_for_ranges(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// RAII: marks the calling thread as already inside a parallel region, so
/// every parallel_for it issues degrades to serial inline execution instead
/// of entering the shared pool (exactly as nested calls from pool workers
/// do). Subsystems that own their own worker threads — the streaming
/// TrackerManager — hold one per worker: the pool's run protocol admits a
/// single external caller at a time, and such a worker's parallelism budget
/// is already spent on cross-session sharding. Results are unaffected
/// (the determinism contract makes serial and pooled execution
/// bit-identical); only scheduling changes. Nests safely.
class SerialRegionGuard {
 public:
  SerialRegionGuard();
  ~SerialRegionGuard();
  SerialRegionGuard(const SerialRegionGuard&) = delete;
  SerialRegionGuard& operator=(const SerialRegionGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace fluxfp::numeric
