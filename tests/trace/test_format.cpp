#include "trace/format.hpp"

#include <gtest/gtest.h>

namespace fluxfp::trace {
namespace {

Trace sample_trace() {
  Trace t;
  const geom::RectField f(10.0, 10.0);
  t.aps = grid_aps(f, 2, 2);
  t.events = {{"alice", 0.0, 0},
              {"bob", 1.5, 2},
              {"alice", 3.0, 1},
              {"bob", 4.25, 3}};
  return t;
}

TEST(TraceFormat, UsersInFirstAppearanceOrder) {
  const Trace t = sample_trace();
  EXPECT_EQ(t.users(), (std::vector<std::string>{"alice", "bob"}));
}

TEST(TraceFormat, EventsOfUserTimeOrdered) {
  Trace t = sample_trace();
  t.events.push_back({"alice", 0.5, 3});
  const auto ev = t.events_of("alice");
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_DOUBLE_EQ(ev[0].time, 0.0);
  EXPECT_DOUBLE_EQ(ev[1].time, 0.5);
  EXPECT_DOUBLE_EQ(ev[2].time, 3.0);
}

TEST(TraceFormat, EventsOfUnknownUserEmpty) {
  EXPECT_TRUE(sample_trace().events_of("nobody").empty());
}

}  // namespace
}  // namespace fluxfp::trace
