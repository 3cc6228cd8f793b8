#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geom/vec2.hpp"
#include "stream/event.hpp"
#include "stream/trace_io.hpp"

namespace fluxfp::netio {

/// The tracking service's wire protocol, version 1. A connection is a
/// sequence of length-prefixed frames in both directions; every frame
/// carries a fixed 12-byte header
///   bytes 0..3   magic "FXN1"
///   bytes 4..5   u16 frame type (FrameType)
///   bytes 6..7   u16 reserved (0)
///   bytes 8..11  u32 payload byte count (bounds-checked against WireLimits)
/// followed by `payload` bytes whose layout depends on the type. Like
/// FLUXFPT1/FLUXFPC1, all integer and f64 fields are raw host-endian bytes
/// (memcpy) — this is a loopback/cluster protocol, and readings round-trip
/// BIT-exactly including the NaN payload of net::kMissingReading. An
/// EVENT_BATCH payload is literally a run of FLUXFPT1 28-byte records
/// (stream::encode_trace_record), so a recorded trace can be cut into
/// frames and a wire capture can be replayed as a trace.
///
/// Versioning/compat rules (DESIGN.md §15): the magic and header layout are
/// frozen forever; kWireVersion is carried in HELLO, and a server that does
/// not speak the client's version answers ERROR{kUnsupportedVersion} with
/// its own version in the message, then closes. New frame types may be
/// added in later versions; within version 1 an unknown type is a protocol
/// error, never silently skipped.
inline constexpr char kFrameMagic[4] = {'F', 'X', 'N', '1'};
inline constexpr std::uint32_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// One event on the wire = one FLUXFPT1 record.
inline constexpr std::size_t kEventRecordBytes = stream::kTraceRecordBytes;

enum class FrameType : std::uint16_t {
  kHello = 1,          ///< client→server: version, tenant, auth token
  kWelcome = 2,        ///< server→client: accepted; tenant session count
  kEventBatch = 3,     ///< client→server: N FLUXFPT1 records
  kBatchAck = 4,       ///< server→client: admission outcome tallies
  kQueryEstimate = 5,  ///< client→server: one user id
  kEstimate = 6,       ///< server→client: quiesced per-slot estimates
  kSnapshotRequest = 7,  ///< client→server: empty
  kSnapshotImage = 8,    ///< server→client: newest committed FLUXFPC1 image
  kMetricsRequest = 9,   ///< client→server: empty
  kMetricsReport = 10,   ///< server→client: MetricsMsg
  kGoodbye = 11,         ///< client→server: clean close request
  kGoodbyeOk = 12,       ///< server→client: acknowledged, closing
  kError = 13,           ///< server→client: typed reason, then close
};

/// True for every type this build speaks (version 1's full catalog).
bool known_frame_type(std::uint16_t raw);
const char* frame_type_name(FrameType type);

/// Typed reason codes carried by ERROR frames. Stable numeric values:
/// clients match on the code, the message text is for humans. 5 is
/// retired (a shard down for good, which a supervised shard never is) and
/// decodes as unknown, like any code not listed here.
enum class ErrorCode : std::uint32_t {
  kMalformedFrame = 1,      ///< framing/payload failed a bounds check
  kUnsupportedVersion = 2,  ///< HELLO version this server does not speak
  kAuthFailed = 3,          ///< unknown tenant or wrong token
  kNotAuthenticated = 4,    ///< first frame was not HELLO
  kUnknownUser = 6,         ///< QUERY_ESTIMATE for an unregistered session
  kServiceClosing = 7,      ///< server is draining; retry elsewhere
  kInternal = 8,            ///< server-side failure, connection unusable
  kModelMismatch = 9,       ///< HELLO observation model differs from server's
};
const char* error_code_name(ErrorCode code);

/// Hard bounds the decoder enforces BEFORE allocating or reading a
/// payload. A hostile peer can therefore never make the server reserve
/// more than max_payload bytes, no matter what lengths its headers claim.
struct WireLimits {
  std::size_t max_payload = 1u << 20;   ///< bytes per frame payload
  std::size_t max_batch_events = 8192;  ///< records per EVENT_BATCH
};

/// Typed malformation report of a wire stream: what went wrong, at which
/// byte offset of the connection (or payload, for decode_* helpers), and
/// why — the netio sibling of stream::TraceError / CheckpointError.
struct WireError {
  enum class Kind {
    kTruncatedHeader,   ///< connection died inside a frame header
    kBadMagic,          ///< header does not start with "FXN1"
    kUnknownType,       ///< frame type this version does not speak
    kOversized,         ///< declared payload length exceeds WireLimits
    kTruncatedPayload,  ///< connection died inside a payload
    kMalformedPayload,  ///< length ok, internal structure inconsistent
    kBadStream,         ///< the socket itself failed (read error)
  };
  Kind kind = Kind::kBadStream;
  std::uint64_t offset = 0;  ///< byte offset where the failure was detected
  std::string reason;

  /// "offset 12: bad magic — ..." — for logs and error messages.
  std::string to_string() const;
};

/// Abstract byte producer the frame decoder reads from. netio::Socket is
/// the production implementation; tests feed in-memory buffers (including
/// hostile ones) through the same code path.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  /// Up to `n` bytes into `buf`. Returns the count read (> 0), 0 at a
  /// clean end of stream, or -1 on a transport error.
  virtual long read_some(char* buf, std::size_t n) = 0;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Incremental frame decoder over a ByteSource. Tracks the connection byte
/// offset so every error pinpoints where the stream went wrong; after the
/// first error the reader stays ended (same sticky contract as
/// TraceReplayer::try_next).
class FrameReader {
 public:
  explicit FrameReader(ByteSource& src, WireLimits limits = {});

  enum class Status {
    kFrame,  ///< `out` holds the next frame
    kEnd,    ///< clean end of stream at a frame boundary
    kError,  ///< malformed / truncated / transport failure; see error()
  };
  Status read(Frame& out);

  const std::optional<WireError>& error() const { return error_; }
  /// Bounds the frames read from now on.
  void set_limits(WireLimits limits) { limits_ = limits; }
  /// Bytes of the connection consumed so far (whole frames).
  std::uint64_t offset() const { return offset_; }

 private:
  ByteSource* src_;
  WireLimits limits_;
  std::uint64_t offset_ = 0;
  std::optional<WireError> error_;
};

/// Header + payload, ready to write. Throws std::invalid_argument when the
/// payload exceeds the u32 length field (callers own WireLimits policy).
std::string encode_frame(FrameType type, std::string_view payload);

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------
// Every decode_* checks each field read against the bytes actually present
// and reports kMalformedPayload with the offset WITHIN the payload; they
// never throw on bad input and never read past the buffer.

struct HelloMsg {
  std::uint32_t version = kWireVersion;
  std::uint32_t tenant = 0;
  std::uint64_t token = 0;
  /// Observation model the client's readings belong to (core::ModelId
  /// values). Encoded as an OPTIONAL trailing u8: a flux client (model 0)
  /// sends the original 16-byte payload byte-identically, so version-1
  /// peers that predate the field interoperate unchanged; a non-flux
  /// client appends one byte, and a decoder missing the byte reads
  /// model 0. A server tracking a different model answers
  /// ERROR{kModelMismatch} and closes.
  std::uint8_t model = 0;
};

/// The largest payload encode_hello() writes: version, tenant and token,
/// then the model byte. Until a connection's HELLO is accepted the server
/// reads no larger frame, so an unauthenticated peer cannot make it wait
/// for, or buffer, a bigger payload.
inline constexpr std::size_t kMaxHelloPayloadBytes = 17;

struct WelcomeMsg {
  std::uint32_t version = kWireVersion;
  std::uint32_t sessions = 0;  ///< registered sessions of this tenant
  std::uint64_t connection_id = 0;
};

/// Per-batch admission tallies, mirroring stream::PushStatus: every record
/// of the batch lands in exactly one bucket.
struct BatchAckMsg {
  std::uint64_t accepted = 0;  ///< routed for folding
  std::uint64_t shed = 0;      ///< rejected by the tenant admission policy
  std::uint64_t unknown = 0;   ///< no such session registered
  std::uint64_t foreign = 0;   ///< session belongs to another tenant
  std::uint64_t closed = 0;    ///< service not running (closing)
};

struct QueryMsg {
  std::uint32_t user = 0;
};

/// Quiesced per-slot estimates of one session. `time` is the session's
/// virtual-time cursor at the cut.
struct EstimateMsg {
  std::uint32_t user = 0;
  std::uint64_t epochs_fired = 0;
  std::uint64_t events_folded = 0;
  double time = 0.0;
  std::vector<geom::Vec2> estimates;
};

/// Server-side service metrics, the payload of kMetricsReport. Latencies
/// are the ingest-to-estimate samples described in DESIGN.md §15
/// (microseconds, wall-clock, kScheduling-grade).
struct MetricsMsg {
  std::uint64_t events_accepted = 0;
  std::uint64_t events_processed = 0;  ///< folded by workers (quiesced)
  std::uint64_t events_shed = 0;
  std::uint64_t events_unknown = 0;
  std::uint64_t events_foreign = 0;
  std::uint64_t batches = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t error_frames = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restarts = 0;
  std::uint64_t sessions = 0;
  double wall_seconds = 0.0;
  double events_per_second = 0.0;  ///< processed / wall_seconds
  double ingest_p50_us = 0.0;
  double ingest_p99_us = 0.0;
  double ingest_max_us = 0.0;
  std::uint64_t ingest_samples = 0;
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kInternal;
  std::uint64_t offset = 0;  ///< connection offset the error refers to
  std::string message;
};

std::string encode_hello(const HelloMsg& msg);
std::string encode_welcome(const WelcomeMsg& msg);
std::string encode_event_batch(std::span<const stream::FluxEvent> events);
std::string encode_batch_ack(const BatchAckMsg& msg);
std::string encode_query(const QueryMsg& msg);
std::string encode_estimate(const EstimateMsg& msg);
std::string encode_metrics(const MetricsMsg& msg);
std::string encode_error(const ErrorMsg& msg);

std::optional<WireError> decode_hello(std::string_view payload, HelloMsg& out);
std::optional<WireError> decode_welcome(std::string_view payload,
                                        WelcomeMsg& out);
std::optional<WireError> decode_event_batch(std::string_view payload,
                                            const WireLimits& limits,
                                            std::vector<stream::FluxEvent>& out);
std::optional<WireError> decode_batch_ack(std::string_view payload,
                                          BatchAckMsg& out);
std::optional<WireError> decode_query(std::string_view payload, QueryMsg& out);
std::optional<WireError> decode_estimate(std::string_view payload,
                                         EstimateMsg& out);
std::optional<WireError> decode_metrics(std::string_view payload,
                                        MetricsMsg& out);
std::optional<WireError> decode_error(std::string_view payload, ErrorMsg& out);

}  // namespace fluxfp::netio
