#include "stream/stream_tracker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/flux.hpp"

namespace fluxfp::stream {
namespace {

/// Four sniffers in the corners of a small field; cheap SMC settings.
struct Fixture {
  geom::RectField field{20.0, 20.0};
  core::FluxModel model{field, 1.0};
  std::vector<std::size_t> nodes{11, 22, 33, 44};
  std::vector<geom::Vec2> positions{{2, 2}, {2, 18}, {18, 2}, {18, 18}};

  StreamTrackerConfig config(std::size_t expected = 4) const {
    StreamTrackerConfig c;
    c.smc.num_predictions = 40;
    c.smc.num_keep = 4;
    c.expected_readings = expected;
    return c;
  }

  StreamTracker tracker(std::size_t expected = 4,
                        std::uint64_t seed = 7) const {
    return StreamTracker(model, nodes, positions, 1, config(expected), seed);
  }
};

FluxEvent ev(double time, std::uint32_t epoch, std::uint32_t node,
             double reading) {
  return {time, 0, epoch, node, reading};
}

TEST(StreamTracker, CtorValidates) {
  const Fixture fx;
  EXPECT_THROW(StreamTracker(fx.model, {}, {}, 1, fx.config(0), 1),
               std::invalid_argument);
  EXPECT_THROW(StreamTracker(fx.model, fx.nodes,
                             {fx.positions[0], fx.positions[1]}, 1,
                             fx.config(0), 1),
               std::invalid_argument);
  std::vector<std::size_t> dup = fx.nodes;
  dup[3] = dup[0];
  EXPECT_THROW(StreamTracker(fx.model, dup, fx.positions, 1, fx.config(0), 1),
               std::invalid_argument);
  StreamTrackerConfig bad = fx.config(0);
  bad.close_delay = 0.0;
  EXPECT_THROW(StreamTracker(fx.model, fx.nodes, fx.positions, 1, bad, 1),
               std::invalid_argument);
  bad = fx.config(0);
  bad.max_open_epochs = 0;
  EXPECT_THROW(StreamTracker(fx.model, fx.nodes, fx.positions, 1, bad, 1),
               std::invalid_argument);
  EXPECT_THROW(StreamTracker(fx.model, fx.nodes, fx.positions, 1,
                             fx.config(5), 1),
               std::invalid_argument);
}

TEST(StreamTracker, CompleteWindowFiresImmediately) {
  const Fixture fx;
  StreamTracker t = fx.tracker();
  EXPECT_TRUE(t.on_event(ev(0.0, 0, 11, 1.0)).empty());
  EXPECT_TRUE(t.on_event(ev(0.1, 0, 22, 0.5)).empty());
  EXPECT_TRUE(t.on_event(ev(0.2, 0, 33, 0.25)).empty());
  const auto fired = t.on_event(ev(0.3, 0, 44, 0.75));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].epoch, 0u);
  EXPECT_EQ(fired[0].readings, 4u);
  EXPECT_EQ(fired[0].estimates.size(), 1u);
  EXPECT_EQ(t.open_windows(), 0u);
  EXPECT_EQ(t.stats().epochs_fired, 1u);
}

TEST(StreamTracker, DeadlineFiresIncompleteWindow) {
  const Fixture fx;
  StreamTracker t = fx.tracker(/*expected=*/0);  // only the deadline closes
  EXPECT_TRUE(t.on_event(ev(0.0, 0, 11, 1.0)).empty());
  EXPECT_TRUE(t.on_event(ev(0.1, 0, 22, 0.5)).empty());
  // Virtual time jumps past newest(0.1) + close_delay(0.5): epoch 0 fires
  // with only its two readings; the carrier event opens epoch 1.
  const auto fired = t.on_event(ev(0.7, 1, 11, 2.0));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].epoch, 0u);
  EXPECT_EQ(fired[0].readings, 2u);
  EXPECT_EQ(t.open_windows(), 1u);
}

TEST(StreamTracker, DuplicateKeepsLatestReading) {
  const Fixture fx;
  // Tracker A hears node 11 twice (stale 9.0, then 1.0); tracker B hears
  // the final value only. The duplicate must fold to the same window.
  StreamTracker a = fx.tracker();
  StreamTracker b = fx.tracker();
  EXPECT_TRUE(a.on_event(ev(0.0, 0, 11, 9.0)).empty());
  EXPECT_TRUE(a.on_event(ev(0.1, 0, 11, 1.0)).empty());
  EXPECT_TRUE(b.on_event(ev(0.1, 0, 11, 1.0)).empty());
  for (StreamTracker* t : {&a, &b}) {
    t->on_event(ev(0.2, 0, 22, 0.5));
    t->on_event(ev(0.3, 0, 33, 0.25));
  }
  const auto fa = a.on_event(ev(0.4, 0, 44, 0.75));
  const auto fb = b.on_event(ev(0.4, 0, 44, 0.75));
  ASSERT_EQ(fa.size(), 1u);
  ASSERT_EQ(fb.size(), 1u);
  EXPECT_EQ(fa[0].readings, 4u);
  EXPECT_EQ(a.stats().duplicates, 1u);
  EXPECT_EQ(b.stats().duplicates, 0u);
  EXPECT_EQ(fa[0].estimates[0].x, fb[0].estimates[0].x);
  EXPECT_EQ(fa[0].estimates[0].y, fb[0].estimates[0].y);
}

TEST(StreamTracker, LateEventsAreCountedAndDropped) {
  const Fixture fx;
  StreamTracker t = fx.tracker();
  for (std::uint32_t node : {11u, 22u, 33u, 44u}) {
    t.on_event(ev(0.1, 0, node, 1.0));
  }
  ASSERT_EQ(t.stats().epochs_fired, 1u);
  // Epoch 0 already fired: a straggler must not reopen it.
  EXPECT_TRUE(t.on_event(ev(0.2, 0, 22, 3.0)).empty());
  EXPECT_EQ(t.stats().late, 1u);
  EXPECT_EQ(t.open_windows(), 0u);
}

TEST(StreamTracker, UnknownNodeIsCounted) {
  const Fixture fx;
  StreamTracker t = fx.tracker();
  EXPECT_TRUE(t.on_event(ev(0.0, 0, 99, 1.0)).empty());
  EXPECT_EQ(t.stats().unknown_node, 1u);
  EXPECT_EQ(t.open_windows(), 0u);
}

TEST(StreamTracker, OutOfOrderEpochsFireAscending) {
  const Fixture fx;
  StreamTracker t = fx.tracker(/*expected=*/0);
  // Events for epochs 2 and 0 interleave (reordered delivery with nearby
  // timestamps): both windows stay open.
  t.on_event(ev(2.0, 2, 11, 1.0));
  t.on_event(ev(1.9, 0, 22, 0.5));
  t.on_event(ev(2.1, 2, 33, 0.25));
  EXPECT_EQ(t.open_windows(), 2u);
  const auto fired = t.flush();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].epoch, 0u);
  EXPECT_EQ(fired[1].epoch, 2u);
  EXPECT_LT(fired[0].time, fired[1].time);  // SMC time strictly increases
}

TEST(StreamTracker, MaxOpenEpochsForcesOldestClosed) {
  const Fixture fx;
  StreamTrackerConfig cfg = fx.config(0);
  cfg.max_open_epochs = 2;
  cfg.close_delay = 100.0;  // deadline never fires in this test
  StreamTracker t(fx.model, fx.nodes, fx.positions, 1, cfg, 7);
  t.on_event(ev(0.0, 0, 11, 1.0));
  t.on_event(ev(0.1, 1, 11, 1.0));
  const auto fired = t.on_event(ev(0.2, 2, 11, 1.0));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].epoch, 0u);
  EXPECT_EQ(t.stats().forced_closes, 1u);
  EXPECT_EQ(t.open_windows(), 2u);
}

TEST(StreamTracker, ArrivalOrderInsideWindowDoesNotChangeEstimates) {
  const Fixture fx;
  StreamTracker fwd = fx.tracker();
  StreamTracker rev = fx.tracker();
  const std::vector<FluxEvent> window = {
      ev(0.0, 0, 11, 1.0), ev(0.1, 0, 22, 0.7), ev(0.2, 0, 33, 0.4),
      ev(0.3, 0, 44, 0.9)};
  std::vector<EpochResult> a;
  for (const FluxEvent& e : window) {
    for (auto& r : fwd.on_event(e)) {
      a.push_back(std::move(r));
    }
  }
  std::vector<EpochResult> b;
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    FluxEvent e = *it;
    e.time = 0.3 - e.time;  // reversed arrival, same window contents
    for (auto& r : rev.on_event(e)) {
      b.push_back(std::move(r));
    }
  }
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].estimates[0].x, b[0].estimates[0].x);
  EXPECT_EQ(a[0].estimates[0].y, b[0].estimates[0].y);
}

TEST(StreamTracker, GraphConvenienceCtorReadsPositions) {
  const Fixture fx;
  const net::UnitDiskGraph graph(
      {{2, 2}, {2, 18}, {18, 2}, {18, 18}, {10, 10}}, 30.0);
  StreamTracker t(fx.model, graph, {0, 1, 2, 3}, 1, fx.config(4), 7);
  StreamTracker direct(fx.model, {0, 1, 2, 3}, fx.positions, 1, fx.config(4),
                       7);
  std::vector<EpochResult> a;
  std::vector<EpochResult> b;
  for (std::uint32_t node : {0u, 1u, 2u, 3u}) {
    for (auto& r : t.on_event(ev(0.1 * node, 0, node, 1.0 / (node + 1)))) {
      a.push_back(std::move(r));
    }
    for (auto& r :
         direct.on_event(ev(0.1 * node, 0, node, 1.0 / (node + 1)))) {
      b.push_back(std::move(r));
    }
  }
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].estimates[0].x, b[0].estimates[0].x);
  EXPECT_EQ(a[0].estimates[0].y, b[0].estimates[0].y);
}

TEST(StreamTracker, UnboundedTimestampsKeepEstimatesFinite) {
  // One hostile event time must not take the session down. After a +inf
  // timestamp the next step's elapsed time is inf - inf = NaN; after
  // DBL_MAX the strictly-increasing bump overflows to inf one step later
  // and the NaN follows the step after that.
  const Fixture fx;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::max()}) {
    StreamTracker t = fx.tracker();
    std::vector<EpochResult> fired;
    const auto fold = [&] {
      for (std::uint32_t epoch = 0; epoch < 8; ++epoch) {
        for (std::size_t k = 0; k < fx.nodes.size(); ++k) {
          const double time = epoch == 2 && k == 1
                                  ? bad
                                  : epoch + 0.1 * static_cast<double>(k);
          const auto node = static_cast<std::uint32_t>(fx.nodes[k]);
          for (EpochResult& r : t.on_event(
                   ev(time, epoch, node, 0.25 * static_cast<double>(k + 1)))) {
            fired.push_back(std::move(r));
          }
        }
      }
      for (EpochResult& r : t.flush()) {
        fired.push_back(std::move(r));
      }
    };
    EXPECT_NO_THROW(fold()) << "bad time " << bad;
    EXPECT_EQ(fired.size(), 8u) << "bad time " << bad;
    for (const EpochResult& r : fired) {
      EXPECT_TRUE(std::isfinite(r.estimates[0].x)) << "epoch " << r.epoch;
      EXPECT_TRUE(std::isfinite(r.estimates[0].y)) << "epoch " << r.epoch;
    }
    EXPECT_TRUE(std::isfinite(t.estimate(0).x));
    EXPECT_TRUE(std::isfinite(t.estimate(0).y));
  }
}

}  // namespace
}  // namespace fluxfp::stream
