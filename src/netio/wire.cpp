#include "netio/wire.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/observation_model.hpp"

namespace fluxfp::netio {

namespace {

// ---------------------------------------------------------------------------
// Bounds-checked cursors
// ---------------------------------------------------------------------------

/// Sequential reader over one payload. Every get_* checks the remaining
/// bytes first; on a short read it records a kMalformedPayload error at the
/// current offset and every later get_* fails fast.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) { return fixed(&v, sizeof(v), "u8"); }
  bool u16(std::uint16_t& v) { return fixed(&v, sizeof(v), "u16"); }
  bool u32(std::uint32_t& v) { return fixed(&v, sizeof(v), "u32"); }
  bool u64(std::uint64_t& v) { return fixed(&v, sizeof(v), "u64"); }
  bool f64(double& v) { return fixed(&v, sizeof(v), "f64"); }

  bool raw(char* dst, std::size_t n, const char* what) {
    return fixed(dst, n, what);
  }

  bool str(std::string& out, std::size_t n, const char* what) {
    if (!require(n, what)) {
      return false;
    }
    out.assign(bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// All bytes consumed and no earlier failure.
  bool done() {
    if (error_) {
      return false;
    }
    if (pos_ != bytes_.size()) {
      error_ = WireError{WireError::Kind::kMalformedPayload, pos_,
                         std::to_string(bytes_.size() - pos_) +
                             " trailing payload bytes"};
      return false;
    }
    return true;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  const std::optional<WireError>& error() const { return error_; }

  std::optional<WireError> fail(const std::string& reason) {
    if (!error_) {
      error_ = WireError{WireError::Kind::kMalformedPayload, pos_, reason};
    }
    return error_;
  }

 private:
  bool require(std::size_t n, const char* what) {
    if (error_) {
      return false;
    }
    if (bytes_.size() - pos_ < n) {
      error_ = WireError{WireError::Kind::kMalformedPayload, pos_,
                         std::string("payload ends inside ") + what + " (" +
                             std::to_string(bytes_.size() - pos_) + " of " +
                             std::to_string(n) + " bytes left)"};
      return false;
    }
    return true;
  }

  bool fixed(void* dst, std::size_t n, const char* what) {
    if (!require(n, what)) {
      return false;
    }
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  std::optional<WireError> error_;
};

struct PayloadWriter {
  std::string bytes;

  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void raw(const void* src, std::size_t n) {
    bytes.append(static_cast<const char*>(src), n);
  }
};

const char* kind_name(WireError::Kind kind) {
  switch (kind) {
    case WireError::Kind::kTruncatedHeader:
      return "truncated frame header";
    case WireError::Kind::kBadMagic:
      return "bad magic";
    case WireError::Kind::kUnknownType:
      return "unknown frame type";
    case WireError::Kind::kOversized:
      return "oversized frame";
    case WireError::Kind::kTruncatedPayload:
      return "truncated payload";
    case WireError::Kind::kMalformedPayload:
      return "malformed payload";
    case WireError::Kind::kBadStream:
      return "stream failure";
  }
  return "unknown";
}

/// FrameReader reads a payload in steps of this many bytes.
constexpr std::size_t kPayloadReadStep = 64 * 1024;

/// Reads exactly `n` bytes. Returns the count actually obtained (== n on
/// success); sets `bad` on a transport error.
std::size_t read_exact(ByteSource& src, char* dst, std::size_t n, bool& bad) {
  std::size_t got = 0;
  while (got < n) {
    const long r = src.read_some(dst + got, n - got);
    if (r < 0) {
      bad = true;
      return got;
    }
    if (r == 0) {
      return got;  // end of stream
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

bool known_frame_type(std::uint16_t raw) {
  return raw >= static_cast<std::uint16_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint16_t>(FrameType::kError);
}

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kWelcome:
      return "WELCOME";
    case FrameType::kEventBatch:
      return "EVENT_BATCH";
    case FrameType::kBatchAck:
      return "BATCH_ACK";
    case FrameType::kQueryEstimate:
      return "QUERY_ESTIMATE";
    case FrameType::kEstimate:
      return "ESTIMATE";
    case FrameType::kSnapshotRequest:
      return "SNAPSHOT_REQUEST";
    case FrameType::kSnapshotImage:
      return "SNAPSHOT_IMAGE";
    case FrameType::kMetricsRequest:
      return "METRICS_REQUEST";
    case FrameType::kMetricsReport:
      return "METRICS_REPORT";
    case FrameType::kGoodbye:
      return "GOODBYE";
    case FrameType::kGoodbyeOk:
      return "GOODBYE_OK";
    case FrameType::kError:
      return "ERROR";
  }
  return "?";
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame:
      return "malformed frame";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported version";
    case ErrorCode::kAuthFailed:
      return "auth failed";
    case ErrorCode::kNotAuthenticated:
      return "not authenticated";
    case ErrorCode::kUnavailable:
      return "temporarily unavailable";
    case ErrorCode::kUnknownUser:
      return "unknown user";
    case ErrorCode::kServiceClosing:
      return "service closing";
    case ErrorCode::kInternal:
      return "internal error";
    case ErrorCode::kModelMismatch:
      return "observation model mismatch";
  }
  return "?";
}

std::string WireError::to_string() const {
  return "offset " + std::to_string(offset) + ": " + kind_name(kind) +
         (reason.empty() ? "" : " — " + reason);
}

FrameReader::FrameReader(ByteSource& src, WireLimits limits)
    : src_(&src), limits_(limits) {}

FrameReader::Status FrameReader::read(Frame& out) {
  if (error_) {
    return Status::kError;  // sticky: the stream already ended badly
  }
  char header[kFrameHeaderBytes];
  bool bad = false;
  const std::size_t got = read_exact(*src_, header, sizeof(header), bad);
  if (got == 0 && !bad) {
    return Status::kEnd;  // clean close between frames
  }
  if (got != sizeof(header)) {
    error_ = WireError{bad ? WireError::Kind::kBadStream
                           : WireError::Kind::kTruncatedHeader,
                       offset_ + got,
                       "got " + std::to_string(got) + " of " +
                           std::to_string(kFrameHeaderBytes) +
                           " header bytes"};
    return Status::kError;
  }
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    error_ = WireError{WireError::Kind::kBadMagic, offset_,
                       "frame does not start with FXN1"};
    return Status::kError;
  }
  std::uint16_t raw_type = 0;
  std::uint32_t length = 0;
  std::memcpy(&raw_type, header + 4, sizeof(raw_type));
  std::memcpy(&length, header + 8, sizeof(length));
  if (!known_frame_type(raw_type)) {
    error_ = WireError{WireError::Kind::kUnknownType, offset_ + 4,
                       "type " + std::to_string(raw_type)};
    return Status::kError;
  }
  if (length > limits_.max_payload) {
    // Checked BEFORE any allocation: a hostile length can never make us
    // reserve the declared bytes.
    error_ = WireError{WireError::Kind::kOversized, offset_ + 8,
                       "declared payload " + std::to_string(length) +
                           " bytes exceeds limit " +
                           std::to_string(limits_.max_payload)};
    return Status::kError;
  }
  out.type = static_cast<FrameType>(raw_type);
  // The buffer grows one read step at a time as bytes arrive, so a declared
  // length costs nothing until the peer sends it. A payload of up to one
  // step takes one resize and one read.
  out.payload.clear();
  std::size_t body = 0;
  while (body < length) {
    const std::size_t step = std::min<std::size_t>(length - body,
                                                   kPayloadReadStep);
    out.payload.resize(body + step);
    bad = false;
    const std::size_t got_step =
        read_exact(*src_, out.payload.data() + body, step, bad);
    body += got_step;
    if (got_step != step) {
      error_ = WireError{bad ? WireError::Kind::kBadStream
                             : WireError::Kind::kTruncatedPayload,
                         offset_ + kFrameHeaderBytes + body,
                         frame_type_name(out.type) + std::string(" payload cut "
                         "short: got ") + std::to_string(body) + " of " +
                             std::to_string(length) + " bytes"};
      return Status::kError;
    }
  }
  offset_ += kFrameHeaderBytes + length;
  return Status::kFrame;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > 0xffffffffu) {
    throw std::invalid_argument("encode_frame: payload too large");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(kFrameMagic, sizeof(kFrameMagic));
  const auto raw_type = static_cast<std::uint16_t>(type);
  const std::uint16_t reserved = 0;
  const auto length = static_cast<std::uint32_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&raw_type), sizeof(raw_type));
  frame.append(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  frame.append(reinterpret_cast<const char*>(&length), sizeof(length));
  frame.append(payload);
  return frame;
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

std::string encode_hello(const HelloMsg& msg) {
  PayloadWriter w;
  w.u32(msg.version);
  w.u32(msg.tenant);
  w.u64(msg.token);
  // The model byte is appended only when it carries information: a flux
  // HELLO stays byte-identical to the pre-model-tag encoding, so peers
  // that predate the field keep interoperating.
  if (msg.model != 0) {
    w.u8(msg.model);
  }
  return w.bytes;
}

std::optional<WireError> decode_hello(std::string_view payload,
                                      HelloMsg& out) {
  PayloadReader r(payload);
  r.u32(out.version);
  r.u32(out.tenant);
  r.u64(out.token);
  out.model = 0;  // absent trailing byte means flux
  if (!r.error() && r.remaining() > 0) {
    r.u8(out.model);
    if (!r.error() && !core::known_model_id(out.model)) {
      return r.fail("unknown observation-model id " +
                    std::to_string(out.model));
    }
  }
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

std::string encode_welcome(const WelcomeMsg& msg) {
  PayloadWriter w;
  w.u32(msg.version);
  w.u32(msg.sessions);
  w.u64(msg.connection_id);
  return w.bytes;
}

std::optional<WireError> decode_welcome(std::string_view payload,
                                        WelcomeMsg& out) {
  PayloadReader r(payload);
  r.u32(out.version);
  r.u32(out.sessions);
  r.u64(out.connection_id);
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

std::string encode_event_batch(std::span<const stream::FluxEvent> events) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(events.size()));
  w.u32(0);  // reserved
  char record[kEventRecordBytes];
  for (const stream::FluxEvent& e : events) {
    stream::encode_trace_record(record, e);
    w.raw(record, sizeof(record));
  }
  return w.bytes;
}

std::optional<WireError> decode_event_batch(
    std::string_view payload, const WireLimits& limits,
    std::vector<stream::FluxEvent>& out) {
  PayloadReader r(payload);
  std::uint32_t count = 0;
  std::uint32_t reserved = 0;
  if (!r.u32(count) || !r.u32(reserved)) {
    return r.error();
  }
  if (count > limits.max_batch_events) {
    return r.fail("batch declares " + std::to_string(count) +
                  " events, limit " +
                  std::to_string(limits.max_batch_events));
  }
  // Exact-size check up front so `count` can never force a speculative
  // allocation larger than the bytes actually sent.
  const std::size_t want =
      static_cast<std::size_t>(count) * kEventRecordBytes;
  if (payload.size() - r.pos() != want) {
    return r.fail("batch of " + std::to_string(count) + " events needs " +
                  std::to_string(want) + " record bytes, payload has " +
                  std::to_string(payload.size() - r.pos()));
  }
  out.clear();
  out.reserve(count);
  char record[kEventRecordBytes];
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.raw(record, sizeof(record), "event record")) {
      return r.error();
    }
    stream::FluxEvent e;
    stream::decode_trace_record(record, e);
    out.push_back(e);
  }
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

std::string encode_batch_ack(const BatchAckMsg& msg) {
  PayloadWriter w;
  w.u64(msg.accepted);
  w.u64(msg.shed);
  w.u64(msg.unknown);
  w.u64(msg.foreign);
  w.u64(msg.closed);
  return w.bytes;
}

std::optional<WireError> decode_batch_ack(std::string_view payload,
                                          BatchAckMsg& out) {
  PayloadReader r(payload);
  r.u64(out.accepted);
  r.u64(out.shed);
  r.u64(out.unknown);
  r.u64(out.foreign);
  r.u64(out.closed);
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

std::string encode_query(const QueryMsg& msg) {
  PayloadWriter w;
  w.u32(msg.user);
  return w.bytes;
}

std::optional<WireError> decode_query(std::string_view payload,
                                      QueryMsg& out) {
  PayloadReader r(payload);
  r.u32(out.user);
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

std::string encode_estimate(const EstimateMsg& msg) {
  PayloadWriter w;
  w.u32(msg.user);
  w.u32(static_cast<std::uint32_t>(msg.estimates.size()));
  w.u64(msg.epochs_fired);
  w.u64(msg.events_folded);
  w.f64(msg.time);
  for (const geom::Vec2& p : msg.estimates) {
    w.f64(p.x);
    w.f64(p.y);
  }
  return w.bytes;
}

std::optional<WireError> decode_estimate(std::string_view payload,
                                         EstimateMsg& out) {
  PayloadReader r(payload);
  std::uint32_t slots = 0;
  if (!r.u32(out.user) || !r.u32(slots) || !r.u64(out.epochs_fired) ||
      !r.u64(out.events_folded) || !r.f64(out.time)) {
    return r.error();
  }
  const std::size_t want = static_cast<std::size_t>(slots) * 16;
  if (payload.size() - r.pos() != want) {
    return r.fail("estimate declares " + std::to_string(slots) +
                  " slots, payload has " +
                  std::to_string(payload.size() - r.pos()) + " bytes");
  }
  out.estimates.clear();
  out.estimates.reserve(slots);
  for (std::uint32_t i = 0; i < slots; ++i) {
    geom::Vec2 p;
    if (!r.f64(p.x) || !r.f64(p.y)) {
      return r.error();
    }
    out.estimates.push_back(p);
  }
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

std::string encode_metrics(const MetricsMsg& msg) {
  PayloadWriter w;
  w.u64(msg.events_accepted);
  w.u64(msg.events_processed);
  w.u64(msg.events_shed);
  w.u64(msg.events_unknown);
  w.u64(msg.events_foreign);
  w.u64(msg.batches);
  w.u64(msg.frames_in);
  w.u64(msg.error_frames);
  w.u64(msg.connections_opened);
  w.u64(msg.connections_active);
  w.u64(msg.checkpoints);
  w.u64(msg.restarts);
  w.u64(msg.sessions);
  w.f64(msg.wall_seconds);
  w.f64(msg.events_per_second);
  w.f64(msg.ingest_p50_us);
  w.f64(msg.ingest_p99_us);
  w.f64(msg.ingest_max_us);
  w.u64(msg.ingest_samples);
  return w.bytes;
}

std::optional<WireError> decode_metrics(std::string_view payload,
                                        MetricsMsg& out) {
  PayloadReader r(payload);
  r.u64(out.events_accepted);
  r.u64(out.events_processed);
  r.u64(out.events_shed);
  r.u64(out.events_unknown);
  r.u64(out.events_foreign);
  r.u64(out.batches);
  r.u64(out.frames_in);
  r.u64(out.error_frames);
  r.u64(out.connections_opened);
  r.u64(out.connections_active);
  r.u64(out.checkpoints);
  r.u64(out.restarts);
  r.u64(out.sessions);
  r.f64(out.wall_seconds);
  r.f64(out.events_per_second);
  r.f64(out.ingest_p50_us);
  r.f64(out.ingest_p99_us);
  r.f64(out.ingest_max_us);
  r.u64(out.ingest_samples);
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

std::string encode_error(const ErrorMsg& msg) {
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(msg.code));
  w.u64(msg.offset);
  w.u32(static_cast<std::uint32_t>(msg.message.size()));
  w.raw(msg.message.data(), msg.message.size());
  return w.bytes;
}

std::optional<WireError> decode_error(std::string_view payload,
                                      ErrorMsg& out) {
  PayloadReader r(payload);
  std::uint32_t code = 0;
  std::uint32_t text_len = 0;
  if (!r.u32(code) || !r.u64(out.offset) || !r.u32(text_len)) {
    return r.error();
  }
  if (code < static_cast<std::uint32_t>(ErrorCode::kMalformedFrame) ||
      code > static_cast<std::uint32_t>(ErrorCode::kModelMismatch)) {
    return r.fail("unknown error code " + std::to_string(code));
  }
  out.code = static_cast<ErrorCode>(code);
  if (!r.str(out.message, text_len, "error text")) {
    return r.error();
  }
  if (!r.done()) {
    return r.error();
  }
  return std::nullopt;
}

}  // namespace fluxfp::netio
