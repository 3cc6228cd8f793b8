#include "stream/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <stdexcept>

namespace fluxfp::stream {

namespace {

// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the same
// polynomial zlib uses, sliced by 8: table 0 is the classic byte table,
// and table k advances a byte through k further zero bytes, so one step
// folds 8 input bytes with 8 independent lookups instead of a chain of 8
// dependent ones. The checkpoint CRC runs on every commit and restore.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Four bytes as a little-endian word, whatever the host order (the CRC
/// is defined over the byte sequence).
std::uint32_t le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t crc32(const char* data, std::size_t n) {
  const CrcTables& t = crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = le32(p) ^ c;
    const std::uint32_t hi = le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// Appends raw host-endian fields to a byte buffer (the FLUXFPT1 idiom:
/// memcpy keeps f64 round-trips bit-exact, NaN payloads included).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  std::string take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked cursor over the payload. Every read checks the remaining
/// byte count first, so a lying length prefix can neither overrun the
/// buffer nor trigger an absurd allocation: element counts are validated
/// against a per-element minimum size before any container is resized.
class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(&buf) {}

  bool u8(std::uint8_t& v) {
    if (remaining() < 1) {
      return fail("u8 past end of payload");
    }
    v = static_cast<std::uint8_t>((*buf_)[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) { return raw(&v, 4, "u32"); }
  bool u64(std::uint64_t& v) { return raw(&v, 8, "u64"); }
  bool f64(double& v) { return raw(&v, 8, "f64"); }

  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!u64(n)) {
      return false;
    }
    if (n > remaining()) {
      return fail("string length exceeds remaining payload");
    }
    s.assign(*buf_, pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  /// Reads an element count and rejects it when even `min_bytes_each`
  /// bytes per element could not fit in what is left.
  bool count(std::uint64_t& n, std::uint64_t min_bytes_each) {
    if (!u64(n)) {
      return false;
    }
    if (min_bytes_each != 0 && n > remaining() / min_bytes_each) {
      return fail("element count exceeds remaining payload");
    }
    return true;
  }

  std::uint64_t remaining() const { return buf_->size() - pos_; }
  std::uint64_t pos() const { return pos_; }
  bool ok() const { return ok_; }
  const std::string& what() const { return what_; }

  bool fail(const char* why) {
    if (ok_) {  // keep the first failure's position and reason
      ok_ = false;
      what_ = why;
      fail_pos_ = pos_;
    }
    return false;
  }
  std::uint64_t fail_pos() const { return fail_pos_; }

 private:
  bool raw(void* p, std::size_t n, const char* what) {
    if (remaining() < n) {
      return fail(what);
    }
    std::memcpy(p, buf_->data() + pos_, n);
    pos_ += n;
    return true;
  }

  const std::string* buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string what_;
  std::uint64_t fail_pos_ = 0;
};

void encode_session(ByteWriter& w, const SessionCheckpoint& s) {
  w.u32(s.user);
  w.u64(s.sniffer_nodes.size());
  for (const std::uint64_t node : s.sniffer_nodes) {
    w.u64(node);
  }
  const StreamTrackerState& st = s.state;
  w.str(st.rng);
  w.u64(st.smc.users.size());
  for (const core::SmcUserState& us : st.smc.users) {
    w.u64(us.particles.size());
    for (const core::Particle& p : us.particles) {
      w.f64(p.position.x);
      w.f64(p.position.y);
      w.f64(p.weight);
    }
    w.f64(us.t_last);
    w.f64(us.prev_estimate.x);
    w.f64(us.prev_estimate.y);
    w.f64(us.heading.x);
    w.f64(us.heading.y);
  }
  w.u32(static_cast<std::uint32_t>(st.smc.bad_rounds));
  w.u64(st.open.size());
  for (const WindowState& ws : st.open) {
    w.u32(ws.epoch);
    w.f64(ws.newest_time);
    w.u64(ws.readings.size());
    for (const double r : ws.readings) {
      w.f64(r);
    }
    for (std::size_t i = 0; i < ws.seen.size(); ++i) {
      w.u8(ws.seen[i] ? 1 : 0);
    }
  }
  w.f64(st.now);
  w.f64(st.last_step_time);
  w.u32(st.last_fired_epoch);
  const StreamStats& ss = st.stats;
  w.u64(ss.events);
  w.u64(ss.duplicates);
  w.u64(ss.late);
  w.u64(ss.out_of_order);
  w.u64(ss.unknown_node);
  w.u64(ss.epochs_fired);
  w.u64(ss.forced_closes);
}

bool decode_session(ByteReader& r, SessionCheckpoint& s) {
  if (!r.u32(s.user)) {
    return false;
  }
  std::uint64_t n = 0;
  if (!r.count(n, 8)) {
    return false;
  }
  s.sniffer_nodes.resize(static_cast<std::size_t>(n));
  for (std::uint64_t& node : s.sniffer_nodes) {
    if (!r.u64(node)) {
      return false;
    }
  }
  StreamTrackerState& st = s.state;
  if (!r.str(st.rng)) {
    return false;
  }
  if (!r.count(n, 8)) {
    return false;
  }
  st.smc.users.resize(static_cast<std::size_t>(n));
  for (core::SmcUserState& us : st.smc.users) {
    std::uint64_t particles = 0;
    if (!r.count(particles, 24)) {
      return false;
    }
    us.particles.resize(static_cast<std::size_t>(particles));
    for (core::Particle& p : us.particles) {
      if (!r.f64(p.position.x) || !r.f64(p.position.y) ||
          !r.f64(p.weight)) {
        return false;
      }
    }
    if (!r.f64(us.t_last) || !r.f64(us.prev_estimate.x) ||
        !r.f64(us.prev_estimate.y) || !r.f64(us.heading.x) ||
        !r.f64(us.heading.y)) {
      return false;
    }
  }
  std::uint32_t bad_rounds = 0;
  if (!r.u32(bad_rounds)) {
    return false;
  }
  if (bad_rounds > static_cast<std::uint32_t>(
                       std::numeric_limits<int>::max())) {
    return r.fail("bad_rounds out of range");
  }
  st.smc.bad_rounds = static_cast<int>(bad_rounds);
  if (!r.count(n, 20)) {
    return false;
  }
  st.open.resize(static_cast<std::size_t>(n));
  for (WindowState& ws : st.open) {
    std::uint64_t slots = 0;
    if (!r.u32(ws.epoch) || !r.f64(ws.newest_time) ||
        !r.count(slots, 9)) {
      return false;
    }
    ws.readings.resize(static_cast<std::size_t>(slots));
    for (double& reading : ws.readings) {
      if (!r.f64(reading)) {
        return false;
      }
    }
    ws.seen.assign(static_cast<std::size_t>(slots), false);
    for (std::size_t i = 0; i < ws.seen.size(); ++i) {
      std::uint8_t bit = 0;
      if (!r.u8(bit)) {
        return false;
      }
      if (bit > 1) {
        return r.fail("seen flag is neither 0 nor 1");
      }
      ws.seen[i] = bit != 0;
    }
  }
  if (!r.f64(st.now) || !r.f64(st.last_step_time) ||
      !r.u32(st.last_fired_epoch)) {
    return false;
  }
  StreamStats& ss = st.stats;
  return r.u64(ss.events) && r.u64(ss.duplicates) && r.u64(ss.late) &&
         r.u64(ss.out_of_order) && r.u64(ss.unknown_node) &&
         r.u64(ss.epochs_fired) && r.u64(ss.forced_closes);
}

void pack_u32(char* dst, std::uint32_t v) { std::memcpy(dst, &v, 4); }
void pack_u64(char* dst, std::uint64_t v) { std::memcpy(dst, &v, 8); }
std::uint32_t unpack_u32(const char* src) {
  std::uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
std::uint64_t unpack_u64(const char* src) {
  std::uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

CheckpointError make_error(CheckpointError::Kind kind, std::uint64_t offset,
                           std::string reason) {
  CheckpointError e;
  e.kind = kind;
  e.offset = offset;
  e.reason = std::move(reason);
  return e;
}

}  // namespace

std::string CheckpointError::to_string() const {
  return "offset " + std::to_string(offset) + ": " + reason;
}

std::string encode_session_record(const SessionCheckpoint& s) {
  ByteWriter w;
  encode_session(w, s);
  return w.take();
}

std::string assemble_checkpoint(std::span<const std::string> records) {
  std::size_t payload_bytes = sizeof(std::uint64_t);
  for (const std::string& r : records) {
    payload_bytes += r.size();
  }
  // The header goes in first as a placeholder, so the payload is written
  // once, in place, and the CRC runs over it where it lies.
  std::string image(kCheckpointHeaderBytes, '\0');
  image.reserve(kCheckpointHeaderBytes + payload_bytes);
  char count[sizeof(std::uint64_t)];
  pack_u64(count, records.size());
  image.append(count, sizeof(count));
  for (const std::string& r : records) {
    image.append(r);
  }
  char* header = image.data();
  std::memcpy(header, kCheckpointMagic, sizeof(kCheckpointMagic));
  pack_u32(header + 8, kCheckpointVersion);
  pack_u32(header + 12, crc32(image.data() + kCheckpointHeaderBytes,
                              payload_bytes));
  pack_u64(header + 16, payload_bytes);
  return image;
}

std::string encode_checkpoint(const ManagerCheckpoint& cp) {
  std::vector<std::string> records;
  records.reserve(cp.sessions.size());
  for (const SessionCheckpoint& s : cp.sessions) {
    records.push_back(encode_session_record(s));
  }
  return assemble_checkpoint(records);
}

std::optional<CheckpointError> read_checkpoint(std::istream& is,
                                               ManagerCheckpoint& out) {
  char header[kCheckpointHeaderBytes];
  is.read(header, sizeof(header));
  const auto got = static_cast<std::uint64_t>(is.gcount());
  if (got != sizeof(header)) {
    return make_error(CheckpointError::Kind::kTruncatedHeader, got,
                      "checkpoint header truncated (" + std::to_string(got) +
                          " of " + std::to_string(kCheckpointHeaderBytes) +
                          " bytes)");
  }
  if (std::memcmp(header, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return make_error(CheckpointError::Kind::kBadMagic, 0,
                      "not a FLUXFPC1 checkpoint (bad magic)");
  }
  const std::uint32_t version = unpack_u32(header + 8);
  if (version != kCheckpointVersion) {
    return make_error(CheckpointError::Kind::kBadVersion, 8,
                      "unsupported checkpoint version " +
                          std::to_string(version));
  }
  const std::uint32_t want_crc = unpack_u32(header + 12);
  const std::uint64_t payload_bytes = unpack_u64(header + 16);

  // Read the payload in bounded chunks: a corrupt length field must not
  // translate into a giant up-front allocation.
  std::string payload;
  char chunk[1 << 16];
  while (payload.size() < payload_bytes) {
    const std::uint64_t want =
        std::min<std::uint64_t>(sizeof(chunk),
                                payload_bytes - payload.size());
    is.read(chunk, static_cast<std::streamsize>(want));
    const auto n = static_cast<std::uint64_t>(is.gcount());
    payload.append(chunk, static_cast<std::size_t>(n));
    if (n < want) {
      return make_error(
          CheckpointError::Kind::kTruncatedPayload,
          kCheckpointHeaderBytes + payload.size(),
          "payload truncated (" + std::to_string(payload.size()) + " of " +
              std::to_string(payload_bytes) + " bytes)");
    }
  }
  if (crc32(payload.data(), payload.size()) != want_crc) {
    return make_error(CheckpointError::Kind::kCrcMismatch, 12,
                      "payload CRC mismatch — torn write or corruption");
  }

  ManagerCheckpoint cp;
  ByteReader r(payload);
  std::uint64_t sessions = 0;
  bool decoded = r.count(sessions, 16);
  if (decoded) {
    cp.sessions.resize(static_cast<std::size_t>(sessions));
    for (SessionCheckpoint& s : cp.sessions) {
      if (!decode_session(r, s)) {
        decoded = false;
        break;
      }
    }
  }
  if (decoded && r.remaining() != 0) {
    r.fail("trailing bytes after the last session");
    decoded = false;
  }
  if (!decoded) {
    return make_error(
        CheckpointError::Kind::kMalformedPayload,
        kCheckpointHeaderBytes + (r.ok() ? r.pos() : r.fail_pos()),
        "malformed payload: " + (r.ok() ? std::string("decode failed")
                                        : r.what()));
  }
  out = std::move(cp);
  return std::nullopt;
}

void write_checkpoint_file(const std::string& path,
                           const std::string& image) {
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  os.close();  // a buffered write can fail as late as the final flush
  if (!os || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_checkpoint_file: cannot write " + path);
  }
}

std::optional<CheckpointError> read_checkpoint_file(const std::string& path,
                                                    ManagerCheckpoint& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return make_error(CheckpointError::Kind::kBadStream, 0,
                      "cannot open " + path);
  }
  return read_checkpoint(is, out);
}

}  // namespace fluxfp::stream
