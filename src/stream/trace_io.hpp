#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/event.hpp"

namespace fluxfp::stream {

/// Binary event-trace format. Fixed 16-byte header
///   bytes 0..7   magic "FLUXFPT1"
///   bytes 8..11  u32 version (1 or 2)
///   bytes 12..15 version 1: u32 reserved (0)
///                version 2: u8 observation-model id (core::ModelId),
///                           3 reserved zero bytes
/// followed by one 28-byte record per event:
///   f64 time, u32 user, u32 epoch, u32 node, f64 reading
/// Values are raw host-endian bytes (memcpy) — readings round-trip
/// BIT-exactly, including the NaN payload of net::kMissingReading, so a
/// recorded run replays into bit-identical estimates. The event count is
/// implied by the stream length; a recorder can therefore stream records
/// without seeking back.
///
/// Versioning is backward-compatible both ways: a flux trace (model 0) is
/// always written as version 1, byte-identical to pre-model-tag traces,
/// so old readers keep reading new flux captures; version 2 exists solely
/// to carry a non-flux model id, and readers accept both versions (a v1
/// trace reads back as model 0).
inline constexpr char kTraceMagic[8] = {'F', 'L', 'U', 'X',
                                        'F', 'P', 'T', '1'};
inline constexpr std::uint32_t kTraceVersion = 1;
/// Header revision carrying the observation-model id byte.
inline constexpr std::uint32_t kTraceVersionModel = 2;
inline constexpr std::size_t kTraceHeaderBytes = 16;
inline constexpr std::size_t kTraceRecordBytes = 28;

/// The FLUXFPT1 record codec, exposed so other framings can reuse it:
/// netio's EVENT_BATCH frames carry exactly these 28-byte records, which is
/// what makes a recorded trace and a wire capture interchangeable. `dst`
/// and `src` must point at kTraceRecordBytes of storage.
void encode_trace_record(char* dst, const FluxEvent& event);
void decode_trace_record(const char* src, FluxEvent& out);

/// Streams events into a binary trace. The header is written on
/// construction; every write() appends one record. The recorder never
/// seeks, so any ostream works (files, pipes, stringstreams).
class TraceRecorder {
 public:
  /// Writes the header. `model_id` tags which observation model the
  /// readings belong to (core::ModelId values): 0 (flux) writes a
  /// version-1 header byte-identical to pre-model-tag recorders; any
  /// other id writes version 2. Throws std::runtime_error on a bad
  /// stream, std::invalid_argument on an unknown model id.
  explicit TraceRecorder(std::ostream& os, std::uint8_t model_id = 0);

  /// Appends one event (or a batch, in order).
  void write(const FluxEvent& event);
  void write(std::span<const FluxEvent> events);

  std::uint64_t written() const { return written_; }
  std::uint8_t model_id() const { return model_id_; }

 private:
  std::ostream* os_;
  std::uint64_t written_ = 0;
  std::uint8_t model_id_ = 0;
};

/// Typed malformation report of a trace stream: what went wrong, at which
/// byte offset of the trace, and why — precise enough to locate the bad
/// record in a multi-gigabyte capture.
struct TraceError {
  enum class Kind {
    kTruncatedHeader,  ///< fewer than 16 header bytes
    kBadMagic,         ///< not a FLUXFPT1 trace
    kBadVersion,       ///< version this build does not speak
    kTruncatedRecord,  ///< a record cut short mid-field
    kBadStream,        ///< the stream itself failed (open/read error)
  };
  Kind kind = Kind::kBadStream;
  std::uint64_t offset = 0;  ///< byte offset where the failure was detected
  std::string reason;

  /// "offset 16: truncated record ..." — for logs and error messages.
  std::string to_string() const;
};

/// The throwing face of a TraceError. Derives std::runtime_error so
/// callers that only care that the trace is bad keep working; callers
/// that want the offset catch this and read error().
class TraceFormatError : public std::runtime_error {
 public:
  explicit TraceFormatError(TraceError err);
  const TraceError& error() const { return err_; }

 private:
  TraceError err_;
};

/// Reads a binary trace back, either one event at a time or whole.
/// Malformations are reported as TraceError — thrown (as TraceFormatError)
/// by the constructor / next() / read_all(), or returned without throwing
/// by try_next() for callers that must keep running past a corrupt tail.
class TraceReplayer {
 public:
  /// Parses the header. Throws TraceFormatError on a short header, bad
  /// magic, or unsupported version.
  explicit TraceReplayer(std::istream& is);

  /// Reads the next record into `out`; false at a clean end of stream.
  /// Throws TraceFormatError on a truncated record.
  bool next(FluxEvent& out);

  /// Non-throwing form of next(): true when `out` was filled; false at
  /// end of input — a clean end when error() is empty, a malformed tail
  /// otherwise (and every later call keeps returning false).
  bool try_next(FluxEvent& out);

  /// The malformation that ended the stream, if any.
  const std::optional<TraceError>& error() const { return error_; }

  /// Remaining records, in order.
  std::vector<FluxEvent> read_all();

  std::uint64_t read_count() const { return read_; }
  /// Bytes of the trace consumed so far (header + whole records).
  std::uint64_t offset() const { return offset_; }
  /// Observation-model tag of the trace (core::ModelId values); 0 (flux)
  /// for version-1 traces, the header byte for version 2.
  std::uint8_t model_id() const { return model_id_; }

 private:
  std::istream* is_;
  std::uint64_t read_ = 0;
  std::uint64_t offset_ = 0;
  std::uint8_t model_id_ = 0;
  std::optional<TraceError> error_;
};

/// Convenience: records `events` to / reads a whole trace from a file.
/// Throws std::runtime_error when the file cannot be opened.
void write_trace_file(const std::string& path,
                      std::span<const FluxEvent> events);
std::vector<FluxEvent> read_trace_file(const std::string& path);

/// Absolute-deadline replay pacing. Every event's delivery deadline is
/// computed against ONE fixed pair of origins — the stream epoch clock
/// (`epoch_time`, usually the trace's first event timestamp) on the virtual
/// axis and the wall instant of the first pace() call on the real axis:
///
///   due(t) = wall_origin + (t - epoch_time) / speed
///
/// so scheduling error can never accumulate: an oversleep on one event
/// leaves every later deadline where it was, and the replay self-corrects
/// by releasing overdue events without sleeping. Deadlines closer than a
/// small slack are released immediately rather than slept for — at high Nx
/// speedups inter-event gaps shrink below the scheduler's sleep
/// granularity, and paying a syscall (plus its oversleep) per event would
/// quietly throttle the offered rate below the advertised one. The honest
/// residual is reported instead: max_behind_seconds() is the worst lag
/// between an event's deadline and its actual release.
///
/// Several pacers (one per loadgen connection) given the same `epoch_time`
/// stay mutually aligned: each connection's slice replays on the shared
/// trace clock, not on its own first event.
class ReplayPacer {
 public:
  /// The time source and the sleep a pacer runs on. real_clock() is
  /// std::chrono::steady_clock with std::this_thread::sleep_for; a test
  /// substitutes a fake to check the pacing arithmetic without the host
  /// scheduler.
  struct Clock {
    std::function<std::chrono::steady_clock::time_point()> now;
    std::function<void(std::chrono::steady_clock::duration)> sleep_for;
  };
  static Clock real_clock();

  /// speed <= 0 disables pacing entirely (max-speed mode: pace() never
  /// sleeps, never reads the clock).
  ReplayPacer(double speed, double epoch_time, Clock clock = real_clock());

  /// Blocks until `event_time` is due. Sleeps in short chunks and polls
  /// `stop` (when non-null) about every 50 ms; returns false when stopped
  /// before the deadline, true when the event is due for delivery.
  bool pace(double event_time, const std::function<bool()>& stop);

  /// Worst observed lag (seconds) between a deadline and its release; 0.0
  /// while the replay has kept up (or in max-speed mode).
  double max_behind_seconds() const { return max_behind_; }

 private:
  double speed_;
  double epoch_time_;
  Clock clock_;
  bool have_origin_ = false;
  std::chrono::steady_clock::time_point wall_origin_;
  double max_behind_ = 0.0;
};

}  // namespace fluxfp::stream
