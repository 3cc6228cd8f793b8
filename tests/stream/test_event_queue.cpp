#include "stream/event_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/flux.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

namespace fluxfp::stream {
namespace {

using Clock = EventQueue::Clock;

FluxEvent ev(double time, std::uint32_t node) {
  return {time, 0, 0, node, 1.0};
}

/// Waiting pop of one event: pop_run with a run bound of 1.
bool pop_one(EventQueue& q, FluxEvent& out) {
  std::vector<FluxEvent> run;
  std::vector<Clock::time_point> completed;
  const bool got = q.pop_run(run, 1, completed);
  if (got) {
    EXPECT_EQ(run.size(), 1u);
    out = run.front();
  }
  return got;
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
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out.node, static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(q.try_pop(out));
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
  while (pop_one(q, out)) {
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
  // push() enqueues, then waits for room: the push that fills the queue
  // holds its producer until a pop brings the depth below capacity.
  EventQueue q(2);
  ASSERT_TRUE(q.push(ev(0, 0)));  // depth 1 of 2: returns at once
  std::atomic<bool> second_done{false};
  // fluxfp-lint: allow(no-raw-thread) -- must observe a blocked push from
  // outside; only a raw thread can be parked mid-call.
  std::thread producer([&] {
    q.push(ev(1, 1));
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());  // full queue held the producer
  EXPECT_EQ(q.size(), 2u);           // with its event already queued
  FluxEvent out;
  ASSERT_TRUE(pop_one(q, out));
  producer.join();
  EXPECT_TRUE(second_done.load());
}

TEST(EventQueue, StatsSnapshotsStayConsistentUnderConcurrentDrops) {
  // A producer mutates pushed/max_depth at full speed against a small
  // queue while this thread snapshots stats() and drains it — under TSan
  // this is the tear/race probe, and the invariants below catch a
  // snapshot that mixed two states.
  constexpr std::size_t kCapacity = 8;
  EventQueue q(kCapacity);
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
    // surrounding traffic, must satisfy the queue's conservation laws. One
    // producer of one-event runs keeps the depth within capacity - 1 + 1.
    ASSERT_LE(s.popped, s.pushed);
    ASSERT_LE(s.pushed - s.popped, kCapacity);
    ASSERT_LE(s.max_depth, kCapacity);
    ++polls;
    if ((polls & 3u) == 0) {
      q.try_pop(out);  // the blocked producer only advances as we pop
    }
  }
  producer.join();
  while (q.try_pop(out)) {
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
  EXPECT_TRUE(pop_one(q, out));  // but the backlog still drains
  EXPECT_EQ(out.node, 7u);
  EXPECT_FALSE(pop_one(q, out));
}

TEST(EventQueue, CloseWakesBlockedProducerPromptly) {
  // Shutdown-wakeup regression guard: a producer parked waiting for room
  // must observe close() promptly and return — shutdown must never wait
  // for a pop that will not come. Its event was queued before the wait,
  // so the push reports true and the event drains with the backlog.
  EventQueue q(2);
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
  EXPECT_TRUE(push_result.load());  // its event was queued before the wait
  FluxEvent out;
  EXPECT_TRUE(pop_one(q, out));  // the backlog still drains
  EXPECT_EQ(out.node, 0u);
  EXPECT_TRUE(pop_one(q, out));
  EXPECT_EQ(out.node, 1u);
  EXPECT_FALSE(pop_one(q, out));
  EXPECT_FALSE(q.push(ev(2, 2)));  // and nothing joins it after the close
}

TEST(EventQueue, MultipleProducersLoseNothingUnderBlock) {
  EventQueue q(4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  constexpr std::size_t kTotal = kProducers * kPerProducer;
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
  // Every producer's last push waits until the consumer drains below the
  // capacity, so taking all kTotal events releases them all.
  std::vector<bool> seen(kTotal, false);
  FluxEvent out;
  std::size_t total = 0;
  while (total < kTotal && pop_one(q, out)) {
    EXPECT_FALSE(seen[out.node]);
    seen[out.node] = true;
    ++total;
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(total, kTotal);
  EXPECT_FALSE(q.try_pop(out));  // and nothing beyond them
}

TEST(EventQueue, RunPushNeverWaitsEvenOnAFullQueue) {
  // No consumer exists: a push_run that waited would hang here.
  EventQueue q(2);
  std::vector<FluxEvent> run;
  for (std::uint32_t i = 0; i < 5; ++i) {
    run.push_back(ev(i, i));
  }
  ASSERT_TRUE(q.push_run(run, {}));  // 5 events into a capacity of 2
  ASSERT_TRUE(q.push_run(run, {}));  // and 5 more onto the full queue
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(q.stats().max_depth, 10u);
  FluxEvent out;
  for (std::uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out.node, i % 5);  // one run after the other, in order
  }
  q.close();
  EXPECT_FALSE(q.push_run(run, {}));  // a closed queue takes nothing
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, WaitForRoomWaitsForAPopBelowCapacityOrAClose) {
  EventQueue q(2);
  const FluxEvent three[] = {ev(0, 0), ev(1, 1), ev(2, 2)};
  ASSERT_TRUE(q.push_run(three, {}));  // depth 3 of 2
  std::atomic<bool> first_released{false};
  std::atomic<bool> second_armed{false};
  std::atomic<bool> second_released{false};
  // fluxfp-lint: allow(no-raw-thread) -- must park a waiter mid-call and
  // release it from outside, by a pop and then by close().
  std::thread waiter([&] {
    q.wait_for_room();
    first_released.store(true);
    while (!second_armed.load()) {
      std::this_thread::yield();
    }
    q.wait_for_room();
    second_released.store(true);
  });
  const auto eventually = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return flag.load();
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(first_released.load());  // depth 3: no room
  FluxEvent out;
  ASSERT_TRUE(q.try_pop(out));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(first_released.load());  // depth 2 is still no room
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_TRUE(eventually(first_released));  // depth 1: room

  ASSERT_TRUE(q.push_run(three, {}));  // depth 4, and no pop will come
  second_armed.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_released.load());
  q.close();
  EXPECT_TRUE(eventually(second_released));  // the close released it
  waiter.join();
  EXPECT_EQ(q.size(), 4u);  // and the backlog stays poppable
}

TEST(EventQueue, PopRunIsBounded) {
  EventQueue q(64);
  std::vector<FluxEvent> events;
  for (std::uint32_t i = 0; i < 15; ++i) {
    events.push_back(ev(i, i));
  }
  const std::span<const FluxEvent> all(events);
  ASSERT_TRUE(q.push_run(all.first(10), {}));
  ASSERT_TRUE(q.push_run(all.subspan(10), {}));
  std::vector<FluxEvent> run;
  std::vector<Clock::time_point> completed;
  std::vector<std::uint32_t> nodes;
  const auto take = [&](std::size_t max_run) {
    const bool got = q.pop_run(run, max_run, completed);
    nodes.clear();
    for (const FluxEvent& e : run) {
      nodes.push_back(e.node);
    }
    return got;
  };
  ASSERT_TRUE(take(4));
  EXPECT_EQ(nodes, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  ASSERT_TRUE(take(4));
  EXPECT_EQ(nodes, (std::vector<std::uint32_t>{4, 5, 6, 7}));
  ASSERT_TRUE(take(4));  // a run may span two pushed runs
  EXPECT_EQ(nodes, (std::vector<std::uint32_t>{8, 9, 10, 11}));
  ASSERT_TRUE(take(100));  // a run is at most what is queued
  EXPECT_EQ(nodes, (std::vector<std::uint32_t>{12, 13, 14}));
  q.close();
  EXPECT_FALSE(take(4));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 15u);
  EXPECT_EQ(s.popped, 15u);
}

TEST(EventQueue, PopRunHandsEachRunsPushTimeToTheTakeThatEndsIt) {
  EventQueue q(64);
  std::vector<FluxEvent> events;
  for (std::uint32_t i = 0; i < 9; ++i) {
    events.push_back(ev(i, i));
  }
  const std::span<const FluxEvent> all(events);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t1 = t0 + std::chrono::microseconds(1);
  const Clock::time_point t2 = t0 + std::chrono::microseconds(2);
  ASSERT_TRUE(q.push_run(all.first(4), t0));
  ASSERT_TRUE(q.push_run(all.subspan(4, 2), t1));
  ASSERT_TRUE(q.push_run(all.subspan(6), t2));
  std::vector<FluxEvent> run;
  std::vector<Clock::time_point> completed{t2};  // every take replaces it
  using Stamps = std::vector<Clock::time_point>;
  ASSERT_TRUE(q.pop_run(run, 3, completed));
  EXPECT_EQ(run.size(), 3u);
  EXPECT_EQ(completed, Stamps{});  // the first run still has an event queued
  ASSERT_TRUE(q.pop_run(run, 1, completed));
  EXPECT_EQ(run.size(), 1u);
  EXPECT_EQ(completed, Stamps{t0});  // its last event: its stamp, once
  ASSERT_TRUE(q.pop_run(run, 10, completed));
  EXPECT_EQ(run.size(), 5u);
  EXPECT_EQ(completed, (Stamps{t1, t2}));  // two whole runs, one stamp each
  q.close();
  ASSERT_FALSE(q.pop_run(run, 10, completed));
  EXPECT_EQ(completed, Stamps{});
}

}  // namespace
}  // namespace fluxfp::stream
