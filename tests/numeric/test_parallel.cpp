#include "numeric/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fluxfp::numeric {
namespace {

/// Restores the ambient worker count when a test exits so these tests
/// cannot leak a thread-count override into the rest of the binary.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(ParallelConfig, SetThreadCountRoundTrips) {
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  set_thread_count(0);  // auto
  EXPECT_GE(thread_count(), 1u);
}

TEST(ParallelConfig, ThreadsEnvironmentIsReadOnce) {
  ThreadCountGuard guard;
  set_thread_count(0);
  const std::size_t resolved = thread_count();
  // A later FLUXFP_THREADS is ignored, also by an explicit "auto". The
  // process keeps the new value: nothing in it reads the variable again,
  // which is what this test pins.
  ASSERT_EQ(setenv("FLUXFP_THREADS", std::to_string(resolved + 3).c_str(), 1),
            0);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), resolved);
}

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  ThreadCountGuard guard;
  set_thread_count(4);
  bool called = false;
  parallel_for(0, 0, [&](std::size_t) { called = true; });
  parallel_for(7, 7, [&](std::size_t) { called = true; });
  parallel_for(9, 3, [&](std::size_t) { called = true; });  // begin > end
  parallel_for_ranges(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, EveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    set_thread_count(threads);
    for (const std::size_t count : {1u, 2u, 13u, 100u, 1000u}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for(0, count, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, NonZeroBeginCoversExactRange) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const std::size_t begin = 17;
  const std::size_t end = 517;
  std::vector<std::atomic<int>> hits(end);
  parallel_for(begin, end, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < end; ++i) {
    ASSERT_EQ(hits[i].load(), i >= begin ? 1 : 0) << "i=" << i;
  }
}

TEST(ParallelForRanges, ChunksAreDisjointAndCoverRange) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const std::size_t begin = 5;
  const std::size_t end = 1005;
  std::vector<std::atomic<int>> hits(end);
  parallel_for_ranges(begin, end, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LE(begin, lo);
    EXPECT_LT(lo, hi);
    EXPECT_LE(hi, end);
    for (std::size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (std::size_t i = begin; i < end; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ParallelFor, PropagatesExceptionAndPoolSurvives) {
  ThreadCountGuard guard;
  set_thread_count(4);
  EXPECT_THROW(parallel_for(0, 1000,
                            [](std::size_t i) {
                              if (i == 437) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
  // The pool must stay fully usable after a thrown region.
  std::vector<std::atomic<int>> hits(200);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, SingleThreadRunsInlineOnCaller) {
  ThreadCountGuard guard;
  set_thread_count(1);
  // fluxfp-lint: allow(no-nondeterminism) -- the test's whole point is
  // observing which thread ran; the id never feeds a result.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> wrong_thread{0};
  parallel_for(0, 64, [&](std::size_t) {
    // fluxfp-lint: allow(no-nondeterminism) -- see above.
    if (std::this_thread::get_id() != caller) {
      wrong_thread.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong_thread.load(), 0);
}

TEST(ParallelFor, NestedCallsDegradeToSerial) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const std::size_t outer = 8;
  const std::size_t inner = 50;
  std::vector<double> sums(outer, 0.0);
  parallel_for(0, outer, [&](std::size_t o) {
    // The nested region must run inline on this thread; sums[o] is only
    // ever touched by the worker that owns index o.
    parallel_for(0, inner,
                 [&](std::size_t i) { sums[o] += static_cast<double>(i); });
  });
  const double expected = static_cast<double>(inner * (inner - 1)) / 2.0;
  for (std::size_t o = 0; o < outer; ++o) {
    EXPECT_DOUBLE_EQ(sums[o], expected);
  }
}

TEST(ParallelFor, OutputsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const auto compute = [](std::size_t threads) {
    set_thread_count(threads);
    std::vector<double> out(512);
    parallel_for(0, out.size(), [&](std::size_t i) {
      const double x = static_cast<double>(i) * 0.37 + 1.0;
      out[i] = std::sqrt(x) + std::sin(x) / x;
    });
    return out;
  };
  const std::vector<double> serial = compute(1);
  EXPECT_EQ(serial, compute(2));
  EXPECT_EQ(serial, compute(4));
  EXPECT_EQ(serial, compute(7));
}

}  // namespace
}  // namespace fluxfp::numeric
