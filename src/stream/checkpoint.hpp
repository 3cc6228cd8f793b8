#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stream/stream_tracker.hpp"

namespace fluxfp::stream {

/// FLUXFPC1 — versioned binary snapshot of a tracking service: every
/// session's complete mutable state (SMC particles and weights, RNG stream
/// position, open epoch windows, virtual-time cursors, ingestion counters)
/// and nothing else — no wall-clock telemetry, no worker layout, no value
/// restore can derive. An image is therefore a pure function of the
/// accepted events: equivalent runs (any worker count, any crash/restore
/// history) write byte-identical images. A service rebuilt from a
/// checkpoint folds every subsequent event bit-identically to one that
/// never stopped.
///
/// Fixed 24-byte header:
///   bytes 0..7   magic "FLUXFPC1"
///   bytes 8..11  u32 version (2)
///   bytes 12..15 u32 CRC-32 (IEEE 802.3, reflected) of the payload bytes
///   bytes 16..23 u64 payload byte count
/// The payload is raw host-endian bytes (memcpy, like FLUXFPT1), so f64
/// fields — readings, weights, timestamps — round-trip BIT-exactly,
/// including the NaN payload of net::kMissingReading. The CRC guards
/// against torn writes and bit rot: a checkpoint either decodes whole or
/// is rejected with a typed error, never half-applied. Other versions are
/// refused with Kind::kBadVersion.
inline constexpr char kCheckpointMagic[8] = {'F', 'L', 'U', 'X',
                                             'F', 'P', 'C', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::size_t kCheckpointHeaderBytes = 24;

/// One session's snapshot. `sniffer_nodes` echoes a construction input so
/// restore can reject a checkpoint taken against a different deployment
/// instead of silently poisoning the filter (the user count is checked
/// against state.smc.users).
struct SessionCheckpoint {
  std::uint32_t user = 0;
  std::vector<std::uint64_t> sniffer_nodes;
  StreamTrackerState state;
};

/// A whole service snapshot, sessions in registration order. Restoring
/// under any worker count is legal and bit-identical (sessions own their
/// RNG and event order), so the layout is not recorded.
struct ManagerCheckpoint {
  std::vector<SessionCheckpoint> sessions;
};

/// Typed decode failure: what went wrong, at which byte offset of the
/// checkpoint image, and why. Returned (not thrown) so supervision code
/// can fall back to an older snapshot without exception plumbing.
struct CheckpointError {
  enum class Kind {
    kTruncatedHeader,   ///< fewer than 24 header bytes
    kBadMagic,          ///< not a FLUXFPC1 image
    kBadVersion,        ///< version this build does not speak
    kTruncatedPayload,  ///< payload shorter than the header promised
    kCrcMismatch,       ///< payload bytes fail the header CRC
    kMalformedPayload,  ///< CRC passed but the structure is inconsistent
    kBadStream,         ///< the stream itself failed (open/read error)
  };
  Kind kind = Kind::kBadStream;
  std::uint64_t offset = 0;  ///< byte offset where the failure was detected
  std::string reason;

  /// "offset 12: payload CRC mismatch ..." — for logs and error messages.
  std::string to_string() const;
};

/// Serializes one session into its payload record: the bytes the session
/// contributes to an image. Records encode independently, so a worker can
/// encode the sessions it owns on its own thread (TrackerManager's cut).
std::string encode_session_record(const SessionCheckpoint& s);

/// Builds a FLUXFPC1 image (header + payload) from session records in
/// registration order: the session count, the records back to back, and
/// the header CRC over them. The supervisor's commit, the one piece of a
/// checkpoint that runs on the coordinating thread.
std::string assemble_checkpoint(std::span<const std::string> records);

/// Serializes a snapshot into one in-memory FLUXFPC1 image: each
/// session's record, assembled. Byte-identical to assembling records
/// encoded elsewhere from the same states.
std::string encode_checkpoint(const ManagerCheckpoint& cp);

/// Decodes a snapshot. On success returns std::nullopt and fills `out`;
/// on any malformation — truncation, corruption, garbage — returns the
/// typed error and leaves `out` unspecified. Never throws on bad input and
/// never reads uninitialized bytes: every field is bounds-checked against
/// the bytes actually obtained.
std::optional<CheckpointError> read_checkpoint(std::istream& is,
                                               ManagerCheckpoint& out);

/// Atomically replaces `path` with an encoded image: writes `path`.tmp, then
/// renames it over `path`, so a failed write (full disk, size limit,
/// crash mid-write) leaves the previous file intact. Throws
/// std::runtime_error when the image cannot be written; an I/O failure,
/// not a format condition, so it stays an exception.
void write_checkpoint_file(const std::string& path, const std::string& image);

/// Reads and decodes a file; an unopenable file reports Kind::kBadStream.
std::optional<CheckpointError> read_checkpoint_file(const std::string& path,
                                                    ManagerCheckpoint& out);

}  // namespace fluxfp::stream
