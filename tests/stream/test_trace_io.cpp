#include "stream/trace_io.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/flux.hpp"

namespace fluxfp::stream {
namespace {

std::vector<FluxEvent> sample_events() {
  return {
      {0.0, 0, 0, 3, 1.25},
      {0.5, 1, 0, 9, 0.0},
      {1.0, 0, 1, 3, net::kMissingReading},
      {1.0, 2, 1, 4, -7.5e-3},
      {2.25, 0, 2, 1, 1e300},
  };
}

TEST(TraceIo, RoundTripIsBitExact) {
  const std::vector<FluxEvent> events = sample_events();
  std::stringstream buffer;
  TraceRecorder rec(buffer);
  rec.write(std::span<const FluxEvent>(events));
  EXPECT_EQ(rec.written(), events.size());
  EXPECT_EQ(buffer.str().size(),
            kTraceHeaderBytes + events.size() * kTraceRecordBytes);

  TraceReplayer rep(buffer);
  const std::vector<FluxEvent> back = rep.read_all();
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Bit-exact, including the NaN payload of a missing reading.
    EXPECT_EQ(std::memcmp(&back[i].time, &events[i].time, sizeof(double)),
              0);
    EXPECT_EQ(back[i].user, events[i].user);
    EXPECT_EQ(back[i].epoch, events[i].epoch);
    EXPECT_EQ(back[i].node, events[i].node);
    EXPECT_EQ(
        std::memcmp(&back[i].reading, &events[i].reading, sizeof(double)),
        0);
  }
  EXPECT_TRUE(net::is_missing(back[2].reading));
}

TEST(TraceIo, NextStreamsOneRecordAtATime) {
  const std::vector<FluxEvent> events = sample_events();
  std::stringstream buffer;
  TraceRecorder rec(buffer);
  for (const FluxEvent& e : events) {
    rec.write(e);
  }
  TraceReplayer rep(buffer);
  FluxEvent out;
  std::size_t n = 0;
  while (rep.next(out)) {
    EXPECT_EQ(out.node, events[n].node);
    ++n;
  }
  EXPECT_EQ(n, events.size());
  EXPECT_EQ(rep.read_count(), events.size());
}

TEST(TraceIo, EmptyTraceIsLegal) {
  std::stringstream buffer;
  TraceRecorder rec(buffer);
  TraceReplayer rep(buffer);
  EXPECT_TRUE(rep.read_all().empty());
}

TEST(TraceIo, RejectsBadMagicAndVersion) {
  {
    std::stringstream buffer("not a trace at all, definitely");
    EXPECT_THROW(TraceReplayer rep(buffer), std::runtime_error);
  }
  {
    std::stringstream buffer;
    TraceRecorder rec(buffer);
    std::string bytes = buffer.str();
    bytes[8] = 9;  // version field
    std::stringstream bad(bytes);
    EXPECT_THROW(TraceReplayer rep(bad), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// The version-2 observation-model tag.
// ---------------------------------------------------------------------------

TEST(TraceModelTag, FluxTracesStayVersionOneByteIdentical) {
  const std::vector<FluxEvent> events = sample_events();
  std::stringstream legacy, tagged;
  TraceRecorder a(legacy);
  TraceRecorder b(tagged, /*model_id=*/0);
  a.write(std::span<const FluxEvent>(events));
  b.write(std::span<const FluxEvent>(events));
  // An explicit flux tag is the default: not one byte may differ, so
  // pre-model-tag readers keep reading new flux captures.
  EXPECT_EQ(legacy.str(), tagged.str());
  const std::string bytes = legacy.str();
  std::uint32_t version;
  std::memcpy(&version, bytes.data() + 8, 4);
  EXPECT_EQ(version, kTraceVersion);

  TraceReplayer rep(legacy);
  EXPECT_EQ(rep.model_id(), 0);  // v1 reads back as flux
}

TEST(TraceModelTag, NonFluxModelRoundTripsThroughVersionTwo) {
  const std::vector<FluxEvent> events = sample_events();
  std::stringstream buffer;
  TraceRecorder rec(buffer, /*model_id=*/2);
  EXPECT_EQ(rec.model_id(), 2);
  rec.write(std::span<const FluxEvent>(events));

  const std::string bytes = buffer.str();
  std::uint32_t version;
  std::memcpy(&version, bytes.data() + 8, 4);
  EXPECT_EQ(version, kTraceVersionModel);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[12]), 2);

  TraceReplayer rep(buffer);
  EXPECT_EQ(rep.model_id(), 2);
  const std::vector<FluxEvent> back = rep.read_all();
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back[i].time, &events[i].time, sizeof(double)),
              0);
    EXPECT_EQ(back[i].user, events[i].user);
    EXPECT_EQ(back[i].epoch, events[i].epoch);
    EXPECT_EQ(back[i].node, events[i].node);
    EXPECT_EQ(
        std::memcmp(&back[i].reading, &events[i].reading, sizeof(double)),
        0);
  }
}

TEST(TraceModelTag, RecorderRejectsUnknownModelId) {
  std::stringstream buffer;
  EXPECT_THROW(TraceRecorder(buffer, 3), std::invalid_argument);
  EXPECT_THROW(TraceRecorder(buffer, 255), std::invalid_argument);
}

TEST(TraceModelTag, ReplayerRejectsUnknownModelByte) {
  std::stringstream buffer;
  TraceRecorder rec(buffer, /*model_id=*/1);
  std::string bytes = buffer.str();
  bytes[12] = 42;  // corrupt the model-id byte of a v2 header
  std::stringstream bad(bytes);
  try {
    TraceReplayer rep(bad);
    FAIL() << "unknown model byte accepted";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.error().kind, TraceError::Kind::kBadVersion);
    EXPECT_EQ(e.error().offset, 12u);
  }
}

TEST(TraceIo, RejectsTruncatedRecord) {
  std::stringstream buffer;
  TraceRecorder rec(buffer);
  rec.write(sample_events()[0]);
  const std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() - 5));
  TraceReplayer rep(truncated);
  FluxEvent out;
  EXPECT_THROW(rep.next(out), std::runtime_error);
}

/// Serialized bytes of a valid trace holding `events`.
std::string trace_bytes(const std::vector<FluxEvent>& events) {
  std::stringstream buffer;
  TraceRecorder rec(buffer);
  rec.write(std::span<const FluxEvent>(events));
  return buffer.str();
}

TEST(TraceError, TruncatedHeaderIsTyped) {
  std::stringstream short_header(trace_bytes({}).substr(0, 10));
  try {
    TraceReplayer rep(short_header);
    FAIL() << "a 10-byte header must not parse";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.error().kind, TraceError::Kind::kTruncatedHeader);
    EXPECT_EQ(e.error().offset, 10u);  // how many bytes there were
    EXPECT_NE(std::string(e.what()).find("offset 10"), std::string::npos);
  }
}

TEST(TraceError, BadMagicIsTyped) {
  std::string bytes = trace_bytes({});
  bytes[0] = 'X';
  std::stringstream bad(bytes);
  try {
    TraceReplayer rep(bad);
    FAIL() << "a corrupt magic must not parse";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.error().kind, TraceError::Kind::kBadMagic);
    EXPECT_EQ(e.error().offset, 0u);
  }
}

TEST(TraceError, BadVersionIsTyped) {
  std::string bytes = trace_bytes({});
  bytes[8] = 9;  // version field
  std::stringstream bad(bytes);
  try {
    TraceReplayer rep(bad);
    FAIL() << "a future version must not parse";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.error().kind, TraceError::Kind::kBadVersion);
    EXPECT_EQ(e.error().offset, 8u);  // where the version field lives
    // The message names both versions so the operator can tell which side
    // is stale.
    EXPECT_NE(e.error().reason.find('9'), std::string::npos);
  }
}

TEST(TraceError, TryNextReportsTruncationWithoutThrowing) {
  // One whole record, then a record cut off mid-way — a crashed recorder's
  // typical tail.
  const std::string bytes = trace_bytes(sample_events());
  std::stringstream cut(
      bytes.substr(0, kTraceHeaderBytes + kTraceRecordBytes + 11));
  TraceReplayer rep(cut);
  FluxEvent out;
  ASSERT_TRUE(rep.try_next(out));  // the intact prefix still replays
  EXPECT_EQ(out.node, sample_events()[0].node);
  EXPECT_FALSE(rep.try_next(out));  // the torn record does not
  ASSERT_TRUE(rep.error().has_value());
  EXPECT_EQ(rep.error()->kind, TraceError::Kind::kTruncatedRecord);
  // The error pinpoints where the good bytes ended and which record tore.
  EXPECT_EQ(rep.error()->offset, kTraceHeaderBytes + kTraceRecordBytes);
  EXPECT_NE(rep.error()->reason.find("record 1"), std::string::npos);
  // The error is sticky: the reader stays ended instead of resyncing into
  // garbage, and the throwing API surfaces the SAME typed error.
  EXPECT_FALSE(rep.try_next(out));
  try {
    rep.next(out);
    FAIL() << "next() must throw on a torn record";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.error().kind, TraceError::Kind::kTruncatedRecord);
    EXPECT_EQ(e.error().offset, rep.error()->offset);
  }
}

TEST(TraceError, OffsetTracksBytesConsumedAndCleanEofIsNotAnError) {
  const std::vector<FluxEvent> events = sample_events();
  std::stringstream buffer(trace_bytes(events));
  TraceReplayer rep(buffer);
  EXPECT_EQ(rep.offset(), kTraceHeaderBytes);
  FluxEvent out;
  std::size_t n = 0;
  while (rep.try_next(out)) {
    ++n;
    EXPECT_EQ(rep.offset(), kTraceHeaderBytes + n * kTraceRecordBytes);
  }
  EXPECT_EQ(n, events.size());
  // End-of-trace is a normal outcome, not a TraceError.
  EXPECT_FALSE(rep.error().has_value());
  EXPECT_FALSE(rep.try_next(out));
  EXPECT_NO_THROW(rep.next(out));
}

TEST(TraceIo, FileRoundTrip) {
  const std::vector<FluxEvent> events = sample_events();
  const std::string path =
      testing::TempDir() + "/fluxfp_trace_roundtrip.trace";
  write_trace_file(path, events);
  const std::vector<FluxEvent> back = read_trace_file(path);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(back[i] == events[i]);
  }
  std::remove(path.c_str());
  EXPECT_THROW(read_trace_file(path), std::runtime_error);
}

TEST(TraceIo, MergeByTimeInterleavesStably) {
  const std::vector<std::vector<FluxEvent>> streams = {
      {{0.0, 0, 0, 1, 1.0}, {1.0, 0, 1, 1, 2.0}, {2.0, 0, 2, 1, 3.0}},
      {{0.5, 1, 0, 2, 4.0}, {1.0, 1, 1, 2, 5.0}},
  };
  const std::vector<FluxEvent> merged =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));
  ASSERT_EQ(merged.size(), 5u);
  const std::vector<std::uint32_t> users = {0, 1, 0, 1, 0};
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].user, users[i]) << "position " << i;
    if (i > 0) {
      EXPECT_LE(merged[i - 1].time, merged[i].time);
    }
  }
}

double seconds_of(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

TEST(ReplayPacer, MaxSpeedModeNeverSleepsOrReadsTheClock) {
  ReplayPacer pacer(0.0, 0.0);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(pacer.pace(static_cast<double>(i) * 1000.0));
  }
  // 10k deliveries spanning "10M seconds" of trace time must take
  // essentially no wall time and report no lag.
  EXPECT_LT(seconds_of(std::chrono::steady_clock::now() - start), 1.0);
  EXPECT_EQ(pacer.max_behind_seconds(), 0.0);
}

TEST(ReplayPacer, PacesAgainstAbsoluteDeadlinesFromTheEpoch) {
  // 2.0 trace-seconds at 20x → the last event is due 100 ms after the
  // first release. Loose bounds: the box is slow, never fast.
  ReplayPacer pacer(20.0, 10.0);  // epoch is the first event's timestamp
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i <= 4; ++i) {
    EXPECT_TRUE(pacer.pace(10.0 + 0.5 * static_cast<double>(i)));
  }
  const double elapsed = seconds_of(std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed, 0.08);  // cannot finish before the schedule allows
  EXPECT_LT(elapsed, 5.0);   // and must not be sleeping wildly long
}

TEST(ReplayPacer, ALateDeliveryDoesNotShiftLaterDeadlines) {
  // Deadlines are absolute (wall_origin + (t - epoch) / speed), so a stall
  // mid-replay makes later events due IMMEDIATELY rather than re-anchoring
  // the schedule — and the stall shows up in max_behind_seconds().
  ReplayPacer pacer(10.0, 0.0);
  EXPECT_TRUE(pacer.pace(0.0));  // anchors the wall origin
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Event at t=0.5 was due 50 ms after the origin; we are ~70 ms late.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(pacer.pace(0.5));
  EXPECT_LT(seconds_of(std::chrono::steady_clock::now() - start), 0.05);
  EXPECT_GT(pacer.max_behind_seconds(), 0.0);
}

/// A clock for ReplayPacer that moves only when the pacer sleeps: by the
/// requested duration plus a fixed oversleep (the scheduler's wake-up
/// jitter, made exact).
struct FakeClock {
  std::chrono::steady_clock::time_point now{};
  std::chrono::steady_clock::duration oversleep{};
  std::vector<std::chrono::steady_clock::duration> sleeps;

  ReplayPacer::Clock clock() {
    return {[this] { return now; },
            [this](std::chrono::steady_clock::duration d) {
              sleeps.push_back(d);
              now += d + oversleep;
            }};
  }
};

TEST(ReplayPacer, KeepingUpReportsOnlySleepJitterAsLag) {
  // The pacer records real wake-up overshoot, so "keeping up" means lag
  // equal to the sleep jitter and nothing more. At 128x, events 0.5 trace
  // seconds apart are due every 3.90625 ms, exact in binary and in
  // nanoseconds, so every figure below is exact.
  using std::chrono::nanoseconds;
  FakeClock fake;
  fake.oversleep = std::chrono::milliseconds(1);
  ReplayPacer pacer(128.0, 0.0, fake.clock());
  const auto origin = fake.now;
  for (int i = 0; i <= 3; ++i) {
    EXPECT_TRUE(pacer.pace(0.5 * static_cast<double>(i)));
    // Released at the absolute deadline plus the one oversleep; the
    // oversleep never shifts a later deadline.
    const nanoseconds due = nanoseconds(3'906'250) * i;
    EXPECT_EQ(fake.now - origin, i == 0 ? due : due + fake.oversleep);
  }
  // The first sleep is a full interval, the later ones an interval less
  // the previous oversleep.
  const std::vector<std::chrono::steady_clock::duration> sleeps{
      nanoseconds(3'906'250), nanoseconds(2'906'250), nanoseconds(2'906'250)};
  EXPECT_EQ(fake.sleeps, sleeps);
  EXPECT_DOUBLE_EQ(pacer.max_behind_seconds(), 0.001);
}

TEST(ReplayPacer, StopFlagAbortsAFarFutureDeadline) {
  ReplayPacer pacer(1.0, 0.0);
  EXPECT_TRUE(pacer.pace(0.0));
  int polls = 0;
  const auto start = std::chrono::steady_clock::now();
  // An event an hour of wall time away; the stop callback fires on the
  // second poll, so pace must return false within a few poll intervals.
  const bool delivered = pacer.pace(3600.0, [&polls] { return ++polls >= 2; });
  EXPECT_FALSE(delivered);
  EXPECT_GE(polls, 2);
  EXPECT_LT(seconds_of(std::chrono::steady_clock::now() - start), 2.0);
}

TEST(ReplayPacer, SharedEpochKeepsSeparatePacersAligned) {
  // The loadgen spawns one pacer per connection, all constructed with the
  // SAME epoch time; an event at trace time t must be released at (nearly)
  // the same wall offset by each of them.
  ReplayPacer a(50.0, 0.0);
  ReplayPacer b(50.0, 0.0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(a.pace(0.0));
  EXPECT_TRUE(b.pace(0.0));
  EXPECT_TRUE(a.pace(2.0));  // due 40 ms after a's origin
  const double a_done = seconds_of(std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(b.pace(2.0));  // b's origin is within microseconds of a's
  const double b_done = seconds_of(std::chrono::steady_clock::now() - start);
  EXPECT_GE(a_done, 0.03);
  // b's deadline had already passed while a slept, so b releases at once.
  EXPECT_LT(b_done - a_done, 0.5);
}

}  // namespace
}  // namespace fluxfp::stream
