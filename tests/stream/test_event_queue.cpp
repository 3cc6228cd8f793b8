#include "stream/event_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/flux.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

namespace fluxfp::stream {
namespace {

using Popped = EventQueue::Popped;

FluxEvent ev(double time, std::uint32_t node) {
  return {time, 0, 0, node, 1.0};
}

TEST(EventQueue, RejectsZeroCapacity) {
  EXPECT_THROW(EventQueue(0), std::invalid_argument);
}

TEST(EventQueue, FifoOrderAndStats) {
  EventQueue q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.push(ev(i, static_cast<std::uint32_t>(i))));
  }
  FluxEvent out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.try_pop(out), Popped::kEvent);
    EXPECT_EQ(out.node, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(q.try_pop(out), Popped::kNone);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 5u);
  EXPECT_EQ(s.popped, 5u);
  EXPECT_EQ(s.max_depth, 5u);
}

TEST(EventQueue, BlockPolicyIsLossless) {
  EventQueue q(2);
  std::atomic<int> produced{0};
  // fluxfp-lint: allow(no-raw-thread) -- MPSC backpressure needs a real
  // competing producer thread; parallel_for cannot model it.
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      q.push(ev(i, static_cast<std::uint32_t>(i)));
      produced.fetch_add(1);
    }
    q.close();
  });
  // Slow consumer: backpressure must keep every event.
  std::vector<std::uint32_t> seen;
  FluxEvent out;
  while (q.pop(out) == Popped::kEvent) {
    seen.push_back(out.node);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  producer.join();
  ASSERT_EQ(seen.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(seen[i], i);
  }
}

TEST(EventQueue, BlockPolicyActuallyBlocksProducer) {
  EventQueue q(1);
  ASSERT_TRUE(q.push(ev(0, 0)));
  std::atomic<bool> second_done{false};
  // fluxfp-lint: allow(no-raw-thread) -- must observe a blocked push from
  // outside; only a raw thread can be parked mid-call.
  std::thread producer([&] {
    q.push(ev(1, 1));
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());  // full queue held the producer
  FluxEvent out;
  ASSERT_EQ(q.pop(out), Popped::kEvent);
  producer.join();
  EXPECT_TRUE(second_done.load());
}

TEST(EventQueue, StatsSnapshotsStayConsistentUnderConcurrentDrops) {
  // A producer mutates pushed/max_depth at full speed against a small
  // queue while this thread snapshots stats() and drains it — under TSan
  // this is the tear/race probe, and the invariants below catch a
  // snapshot that mixed two states.
  EventQueue q(8);
  constexpr std::uint64_t kEvents = 20000;
#if defined(FLUXFP_OBS_ENABLED)
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& obs_pushed =
      reg.counter("fluxfp_stream_queue_pushed_total", "");
  obs::Counter& obs_popped =
      reg.counter("fluxfp_stream_queue_popped_total", "");
  const std::uint64_t pushed0 = obs_pushed.value();
  const std::uint64_t popped0 = obs_popped.value();
#endif
  std::atomic<bool> done{false};
  // fluxfp-lint: allow(no-raw-thread) -- the race under test is a producer
  // mutating QueueStats while another thread snapshots them.
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      q.push(ev(static_cast<double>(i), static_cast<std::uint32_t>(i % 64)));
    }
    done.store(true);
  });
  FluxEvent out;
  std::uint64_t polls = 0;
  while (!done.load()) {
    const QueueStats s = q.stats();
    // Counters are taken under one lock: any snapshot, however racy the
    // surrounding traffic, must satisfy the queue's conservation laws.
    ASSERT_LE(s.popped, s.pushed);
    ASSERT_LE(s.pushed - s.popped, q.capacity());
    ASSERT_LE(s.max_depth, q.capacity());
    ++polls;
    if ((polls & 3u) == 0) {
      q.try_pop(out);  // the blocked producer only advances as we pop
    }
  }
  producer.join();
  while (q.try_pop(out) == Popped::kEvent) {
  }
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, kEvents);
  EXPECT_EQ(s.popped, s.pushed);
#if defined(FLUXFP_OBS_ENABLED)
  // The obs mirrors moved in lockstep with the QueueStats they replace.
  EXPECT_EQ(obs_pushed.value() - pushed0, s.pushed);
  EXPECT_EQ(obs_popped.value() - popped0, s.popped);
#endif
}

TEST(EventQueue, CloseDrainsThenStops) {
  EventQueue q(4);
  q.push(ev(0, 7));
  q.close();
  EXPECT_FALSE(q.push(ev(1, 8)));  // no new events after close
  FluxEvent out;
  EXPECT_EQ(q.pop(out), Popped::kEvent);  // but the backlog still drains
  EXPECT_EQ(out.node, 7u);
  EXPECT_EQ(q.pop(out), Popped::kNone);
}

TEST(EventQueue, CloseWakesBlockedProducerPromptly) {
  // Shutdown-wakeup regression guard: a producer parked in a blocked push
  // must observe close() promptly and return false — shutdown must never
  // wait for a pop that will not come.
  EventQueue q(1);
  ASSERT_TRUE(q.push(ev(0, 0)));
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  // fluxfp-lint: allow(no-raw-thread) -- must park a producer mid-push and
  // watch close() release it from outside.
  std::thread producer([&] {
    push_result.store(q.push(ev(1, 1)));
    push_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(push_returned.load());  // parked on the full queue
  q.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!push_returned.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(push_returned.load());  // woke without a pop
  producer.join();
  EXPECT_FALSE(push_result.load());   // and reported the closure
  FluxEvent out;
  EXPECT_EQ(q.pop(out), Popped::kEvent);  // the pre-close backlog still drains
  EXPECT_EQ(out.node, 0u);
  EXPECT_EQ(q.pop(out), Popped::kNone);
}

TEST(EventQueue, EvictOneRemovesOldestOfUserAndCounts) {
  EventQueue q(8);
  ASSERT_TRUE(q.push({0.0, 5, 0, 10, 1.0}));
  ASSERT_TRUE(q.push({1.0, 9, 0, 11, 1.0}));
  ASSERT_TRUE(q.push({2.0, 5, 1, 12, 1.0}));
  EXPECT_FALSE(q.evict_one(77));  // no such user queued
  EXPECT_TRUE(q.evict_one(5));    // removes user 5's OLDEST event
  FluxEvent out;
  ASSERT_EQ(q.try_pop(out), Popped::kEvent);
  EXPECT_EQ(out.user, 9u);
  ASSERT_EQ(q.try_pop(out), Popped::kEvent);
  EXPECT_EQ(out.user, 5u);
  EXPECT_EQ(out.node, 12u);  // the newer of user 5's events survived
  EXPECT_EQ(q.try_pop(out), Popped::kNone);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 3u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_EQ(s.popped, 2u);
  // Conservation: pushed == popped + evicted + size().
  EXPECT_EQ(s.pushed, s.popped + s.evicted + q.size());
}

TEST(EventQueue, EvictOneFreesASlotForABlockedProducer) {
  EventQueue q(1);
  ASSERT_TRUE(q.push({0.0, 4, 0, 0, 1.0}));
  std::atomic<bool> second_done{false};
  // fluxfp-lint: allow(no-raw-thread) -- a parked producer observing the
  // slot evict_one() frees is the contract under test.
  std::thread producer([&] {
    q.push({1.0, 6, 0, 1, 1.0});
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());
  EXPECT_TRUE(q.evict_one(4));  // displacement frees the slot
  producer.join();
  EXPECT_TRUE(second_done.load());
  FluxEvent out;
  ASSERT_EQ(q.try_pop(out), Popped::kEvent);
  EXPECT_EQ(out.user, 6u);
}

TEST(EventQueue, MarkersKeepFifoOrderAndTakeNoSlot) {
  EventQueue q(2);
  ASSERT_TRUE(q.push({0.0, 5, 0, 10, 1.0}));
  ASSERT_TRUE(q.push({1.0, 9, 0, 11, 1.0}));
  ASSERT_TRUE(q.push_marker());  // full queue: a marker still never waits
  EXPECT_EQ(q.size(), 2u);       // and is not counted as an event
  EXPECT_TRUE(q.evict_one(5));   // an eviction ahead moves it up
  ASSERT_TRUE(q.push({2.0, 5, 1, 12, 1.0}));
  ASSERT_TRUE(q.push_marker());
  FluxEvent out;
  ASSERT_EQ(q.try_pop(out), Popped::kEvent);
  EXPECT_EQ(out.node, 11u);
  EXPECT_EQ(q.try_pop(out), Popped::kMarker);
  EXPECT_EQ(out.node, 11u);  // a marker leaves `out` alone
  q.close();
  EXPECT_FALSE(q.push_marker());
  ASSERT_EQ(q.pop(out), Popped::kEvent);  // the backlog still drains ...
  EXPECT_EQ(out.node, 12u);
  EXPECT_EQ(q.pop(out), Popped::kMarker);  // ... markers included
  EXPECT_EQ(q.pop(out), Popped::kNone);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, s.popped + s.evicted);
}

TEST(EventQueue, MultipleProducersLoseNothingUnderBlock) {
  EventQueue q(4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  // fluxfp-lint: allow(no-raw-thread) -- multi-producer contention test;
  // the queue's own contract is the thing under test.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(ev(i, static_cast<std::uint32_t>(p * kPerProducer + i)));
      }
    });
  }
  // fluxfp-lint: allow(no-raw-thread) -- closes the queue only after every
  // producer exits; raw join ordering is the scenario itself.
  std::thread closer([&] {
    for (auto& t : producers) {
      t.join();
    }
    q.close();
  });
  std::vector<bool> seen(kProducers * kPerProducer, false);
  FluxEvent out;
  std::size_t total = 0;
  while (q.pop(out) == Popped::kEvent) {
    EXPECT_FALSE(seen[out.node]);
    seen[out.node] = true;
    ++total;
  }
  closer.join();
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPerProducer));
}

}  // namespace
}  // namespace fluxfp::stream
