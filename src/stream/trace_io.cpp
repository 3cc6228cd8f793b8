#include "stream/trace_io.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/observation_model.hpp"

namespace fluxfp::stream {

namespace {

void pack_u32(char* dst, std::uint32_t v) { std::memcpy(dst, &v, 4); }
void pack_f64(char* dst, double v) { std::memcpy(dst, &v, 8); }
std::uint32_t unpack_u32(const char* src) {
  std::uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
double unpack_f64(const char* src) {
  double v;
  std::memcpy(&v, src, 8);
  return v;
}

const char* kind_name(TraceError::Kind kind) {
  switch (kind) {
    case TraceError::Kind::kTruncatedHeader:
      return "truncated header";
    case TraceError::Kind::kBadMagic:
      return "bad magic";
    case TraceError::Kind::kBadVersion:
      return "unsupported version";
    case TraceError::Kind::kTruncatedRecord:
      return "truncated record";
    case TraceError::Kind::kBadStream:
      return "stream failure";
  }
  return "unknown";
}

}  // namespace

void encode_trace_record(char* dst, const FluxEvent& event) {
  pack_f64(dst + 0, event.time);
  pack_u32(dst + 8, event.user);
  pack_u32(dst + 12, event.epoch);
  pack_u32(dst + 16, event.node);
  pack_f64(dst + 20, event.reading);
}

void decode_trace_record(const char* src, FluxEvent& out) {
  out.time = unpack_f64(src + 0);
  out.user = unpack_u32(src + 8);
  out.epoch = unpack_u32(src + 12);
  out.node = unpack_u32(src + 16);
  out.reading = unpack_f64(src + 20);
}

std::string TraceError::to_string() const {
  return "offset " + std::to_string(offset) + ": " + kind_name(kind) +
         (reason.empty() ? "" : " — " + reason);
}

TraceFormatError::TraceFormatError(TraceError err)
    : std::runtime_error("TraceReplayer: " + err.to_string()),
      err_(std::move(err)) {}

TraceRecorder::TraceRecorder(std::ostream& os, std::uint8_t model_id)
    : os_(&os), model_id_(model_id) {
  if (!core::known_model_id(model_id)) {
    throw std::invalid_argument("TraceRecorder: unknown model id " +
                                std::to_string(model_id));
  }
  char header[kTraceHeaderBytes];
  std::memcpy(header, kTraceMagic, sizeof(kTraceMagic));
  // Flux (model 0) stays version 1, byte-identical to pre-model-tag
  // recorders; only a non-flux model needs the version-2 header.
  if (model_id == 0) {
    pack_u32(header + 8, kTraceVersion);
    pack_u32(header + 12, 0);
  } else {
    pack_u32(header + 8, kTraceVersionModel);
    pack_u32(header + 12, 0);
    header[12] = static_cast<char>(model_id);
  }
  os_->write(header, sizeof(header));
  if (!*os_) {
    throw std::runtime_error("TraceRecorder: failed to write header");
  }
}

void TraceRecorder::write(const FluxEvent& event) {
  char record[kTraceRecordBytes];
  encode_trace_record(record, event);
  os_->write(record, sizeof(record));
  if (!*os_) {
    throw std::runtime_error("TraceRecorder: write failed");
  }
  ++written_;
}

void TraceRecorder::write(std::span<const FluxEvent> events) {
  for (const FluxEvent& e : events) {
    write(e);
  }
}

TraceReplayer::TraceReplayer(std::istream& is) : is_(&is) {
  char header[kTraceHeaderBytes];
  is_->read(header, sizeof(header));
  const std::streamsize got = is_->gcount();
  if (got != static_cast<std::streamsize>(sizeof(header))) {
    error_ = TraceError{TraceError::Kind::kTruncatedHeader,
                        static_cast<std::uint64_t>(got),
                        "got " + std::to_string(got) + " of " +
                            std::to_string(kTraceHeaderBytes) +
                            " header bytes"};
    throw TraceFormatError(*error_);
  }
  if (std::memcmp(header, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    error_ = TraceError{TraceError::Kind::kBadMagic, 0,
                        "not a fluxfp event trace"};
    throw TraceFormatError(*error_);
  }
  const std::uint32_t version = unpack_u32(header + 8);
  if (version != kTraceVersion && version != kTraceVersionModel) {
    error_ = TraceError{TraceError::Kind::kBadVersion, 8,
                        "trace version " + std::to_string(version) +
                            ", this build speaks " +
                            std::to_string(kTraceVersion) + " and " +
                            std::to_string(kTraceVersionModel)};
    throw TraceFormatError(*error_);
  }
  if (version == kTraceVersionModel) {
    const auto raw = static_cast<std::uint8_t>(header[12]);
    if (!core::known_model_id(raw)) {
      error_ = TraceError{TraceError::Kind::kBadVersion, 12,
                          "unknown observation-model id " +
                              std::to_string(raw)};
      throw TraceFormatError(*error_);
    }
    model_id_ = raw;
  }
  offset_ = kTraceHeaderBytes;
}

bool TraceReplayer::try_next(FluxEvent& out) {
  if (error_) {
    return false;  // the stream already ended badly; stay ended
  }
  char record[kTraceRecordBytes];
  is_->read(record, sizeof(record));
  const std::streamsize got = is_->gcount();
  if (got == 0) {
    if (is_->bad()) {
      error_ = TraceError{TraceError::Kind::kBadStream, offset_,
                          "read failed mid-trace"};
    }
    return false;
  }
  if (got != static_cast<std::streamsize>(sizeof(record))) {
    error_ = TraceError{
        TraceError::Kind::kTruncatedRecord, offset_,
        "record " + std::to_string(read_) + " has " + std::to_string(got) +
            " of " + std::to_string(kTraceRecordBytes) + " bytes"};
    return false;
  }
  decode_trace_record(record, out);
  ++read_;
  offset_ += kTraceRecordBytes;
  return true;
}

bool TraceReplayer::next(FluxEvent& out) {
  const bool filled = try_next(out);
  if (!filled && error_) {
    throw TraceFormatError(*error_);
  }
  return filled;
}

std::vector<FluxEvent> TraceReplayer::read_all() {
  std::vector<FluxEvent> events;
  FluxEvent e;
  while (next(e)) {
    events.push_back(e);
  }
  return events;
}

void write_trace_file(const std::string& path,
                      std::span<const FluxEvent> events) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_trace_file: cannot open " + path);
  }
  TraceRecorder recorder(out);
  recorder.write(events);
}

std::vector<FluxEvent> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_trace_file: cannot open " + path);
  }
  TraceReplayer replayer(in);
  return replayer.read_all();
}

namespace {

/// Deadlines within this much of "now" are released without sleeping: the
/// scheduler cannot honor sub-slack sleeps anyway, and attempting them at
/// high Nx speedups (per-event syscall + oversleep) throttles the offered
/// rate below the advertised one.
constexpr double kPacingSlackSeconds = 500e-6;
/// Longest single sleep, so a stop flag is honored promptly.
constexpr auto kPacingChunk = std::chrono::milliseconds(50);

}  // namespace

ReplayPacer::Clock ReplayPacer::real_clock() {
  return {[] { return std::chrono::steady_clock::now(); },
          [](std::chrono::steady_clock::duration d) {
            std::this_thread::sleep_for(d);
          }};
}

ReplayPacer::ReplayPacer(double speed, double epoch_time, Clock clock)
    : speed_(speed), epoch_time_(epoch_time), clock_(std::move(clock)) {}

bool ReplayPacer::pace(double event_time) {
  return pace(event_time, nullptr);
}

bool ReplayPacer::pace(double event_time,
                       const std::function<bool()>& stop) {
  if (speed_ <= 0.0) {
    return true;  // max-speed mode: no pacing, no clock reads
  }
  if (!have_origin_) {
    wall_origin_ = clock_.now();
    have_origin_ = true;
  }
  // Reordered traces (event-level faults) have non-monotonic times; a
  // negative offset simply means "due already".
  const double due_offset = (event_time - epoch_time_) / speed_;
  const auto due =
      wall_origin_ +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(due_offset));
  auto now = clock_.now();
  while (due - now > std::chrono::duration<double>(kPacingSlackSeconds)) {
    if (stop && stop()) {
      return false;
    }
    clock_.sleep_for(std::min<std::chrono::steady_clock::duration>(
        due - now, kPacingChunk));
    now = clock_.now();
  }
  const double behind = std::chrono::duration<double>(now - due).count();
  if (behind > max_behind_) {
    max_behind_ = behind;
  }
  return true;
}

}  // namespace fluxfp::stream
