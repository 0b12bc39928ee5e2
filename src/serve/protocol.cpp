#include "serve/protocol.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace jigsaw::serve {

namespace {

// Sanity ceiling for decode: no legitimate request/reply body reaches this
// (the server applies its own, much smaller, admission limits first).
constexpr std::uint64_t kAbsoluteMaxElements = 1ull << 28;
constexpr std::uint32_t kMaxCoils = 1024;
constexpr std::uint32_t kMaxMessageBytes = 1u << 20;

// Coordinate and value payloads cross the wire as the host's in-memory
// arrays, one bulk copy each.
static_assert(sizeof(Coord<2>) == 16 &&
                  std::is_trivially_copyable_v<Coord<2>>,
              "Coord<2> must be two packed doubles");
static_assert(sizeof(c64) == 2 * sizeof(double),
              "c64 must be two packed doubles");

/// The encoding side of a layout: appends every field. It never validates —
/// tests encode malformed messages on purpose to exercise the decoder.
class Writer {
 public:
  void u32(std::uint32_t v, const char*) { raw(&v, sizeof v); }
  void u64(std::uint64_t v, const char*) { raw(&v, sizeof v); }
  void f64(double v, const char*) { raw(&v, sizeof v); }
  void pad() { u32(0, "pad"); }
  void version() { u32(kProtocolVersion, "version"); }
  void status(Status s) { u32(static_cast<std::uint32_t>(s), "status"); }
  void message(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()), "msg_len");
    raw(s.data(), s.size());
  }
  void samples(const std::vector<Coord<2>>& coords,
               const std::vector<c64>& values, std::uint32_t /*coils*/) {
    u64(coords.size(), "m");
    raw(coords.data(), coords.size() * sizeof(Coord<2>));
    raw(values.data(), values.size() * sizeof(c64));
  }
  void image(const std::vector<c64>& pixels) {
    u64(pixels.size(), "pixel_count");
    raw(pixels.data(), pixels.size() * sizeof(c64));
  }
  void check(bool, const char*) {}

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // an empty vector's data() may be null
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

/// The decoding side of a layout: reads every field into the message and
/// validates it. Counts are checked against the bytes actually present
/// before anything is allocated, so a tiny body advertising a huge count
/// is refused instead of making the receiver allocate gigabytes. With
/// `skip_pixels` an image is checked like any other but not copied.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len, bool skip_pixels = false)
      : data_(data), len_(len), skip_pixels_(skip_pixels) {}

  void u32(std::uint32_t& v, const char* field) { raw(&v, sizeof v, field); }
  void u64(std::uint64_t& v, const char* field) { raw(&v, sizeof v, field); }
  void f64(double& v, const char* field) { raw(&v, sizeof v, field); }
  void pad() {
    std::uint32_t ignored;
    u32(ignored, "pad");
  }
  void version() {
    std::uint32_t v;
    u32(v, "version");
    if (v != kProtocolVersion) {
      throw ProtocolError("version: unsupported protocol version " +
                          std::to_string(v));
    }
  }
  void status(Status& s) {
    std::uint32_t v;
    u32(v, "status");
    if (v > static_cast<std::uint32_t>(Status::kError)) {
      throw ProtocolError("status: unknown status code " + std::to_string(v));
    }
    s = static_cast<Status>(v);
  }
  void message(std::string& s) {
    std::uint32_t len;
    u32(len, "msg_len");
    check(len <= kMaxMessageBytes, "msg_len: message implausibly long");
    s.assign(reinterpret_cast<const char*>(take(len, "message")), len);
  }
  void samples(std::vector<Coord<2>>& coords, std::vector<c64>& values,
               std::uint32_t coils) {
    std::uint64_t m;
    u64(m, "m");
    if (m > kAbsoluteMaxElements || coils > kMaxCoils ||
        m * coils > kAbsoluteMaxElements) {
      throw ProtocolError("m: " + std::to_string(m) + " samples x " +
                          std::to_string(coils) + " coils implausibly large");
    }
    tail_is("m", m * sizeof(Coord<2>) + m * coils * sizeof(c64));
    coords.resize(static_cast<std::size_t>(m));
    raw(coords.data(), coords.size() * sizeof(Coord<2>), "coords");
    values.resize(static_cast<std::size_t>(m * coils));
    raw(values.data(), values.size() * sizeof(c64), "values");
  }
  void image(std::vector<c64>& pixels) {
    std::uint64_t count;
    u64(count, "pixel_count");
    check(count <= kAbsoluteMaxElements, "pixel_count: implausibly large");
    tail_is("pixel_count", count * sizeof(c64));
    if (skip_pixels_) {
      pos_ = len_;
      return;
    }
    pixels.resize(static_cast<std::size_t>(count));
    raw(pixels.data(), pixels.size() * sizeof(c64), "image");
  }
  void check(bool ok, const char* what) {
    if (!ok) throw ProtocolError(what);
  }

  void expect_consumed() const {
    if (pos_ != len_) {
      throw ProtocolError("trailing garbage: " + std::to_string(len_ - pos_) +
                          " unconsumed bytes");
    }
  }

 private:
  const std::uint8_t* take(std::size_t n, const char* field) {
    if (len_ - pos_ < n) {
      throw ProtocolError(std::string(field) + ": truncated body (need " +
                          std::to_string(n) + " bytes, have " +
                          std::to_string(len_ - pos_) + ")");
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  void raw(void* out, std::size_t n, const char* field) {
    const std::uint8_t* p = take(n, field);
    if (n > 0) std::memcpy(out, p, n);
  }
  /// The payload that `field` counts is the rest of the body: exactly
  /// `bytes` must remain.
  void tail_is(const char* field, std::uint64_t bytes) const {
    if (bytes != len_ - pos_) {
      throw ProtocolError(std::string(field) + ": body carries " +
                          std::to_string(len_ - pos_) +
                          " payload bytes, expected " + std::to_string(bytes));
    }
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool skip_pixels_;
};

// --- one layout per body ---------------------------------------------------
//
// Each layout lists its body's fields once, in wire order; Writer encodes
// through it and Reader decodes through it. M is the wire struct, const
// when encoding. Checks that belong to one message type sit in its layout
// as io.check(), which only the Reader enforces.

template <class M, class Wire>
concept Is = std::same_as<std::remove_const_t<M>, Wire>;

template <class IO, Is<ReconRequestWire> M>
void layout(IO& io, M& m) {
  io.version();
  io.u32(m.engine, "engine");
  io.u32(m.n, "n");
  io.u32(m.iters, "iters");
  io.u32(m.coils, "coils");
  io.u32(m.sanitize, "sanitize");
  io.u32(m.kernel_width, "kernel_width");
  io.pad();  // 8-byte alignment of the doubles that follow
  io.f64(m.sigma, "sigma");
  io.u64(m.deadline_ms, "deadline_ms");
  io.u64(m.client_tag, "client_tag");
  io.check(m.coils != 0, "coils: must be >= 1");
  io.samples(m.coords, m.values, m.coils);
  io.check(!m.coords.empty(), "m: empty sample set");
}

template <class IO, Is<ReconReplyWire> M>
void layout(IO& io, M& m) {
  io.status(m.status);
  io.u32(m.n, "n");
  io.u64(m.client_tag, "client_tag");
  io.u64(m.sanitize_dropped, "sanitize_dropped");
  io.u64(m.sanitize_repaired, "sanitize_repaired");
  io.message(m.message);
  io.image(m.image);
}

template <class IO, Is<OpenSessionWire> M>
void layout(IO& io, M& m) {
  io.version();
  io.u32(m.engine, "engine");
  io.u32(m.n, "n");
  io.u32(m.iters, "iters");
  io.u32(m.coils, "coils");
  io.u32(m.kernel_width, "kernel_width");
  io.u32(m.warm_start, "warm_start");
  io.pad();  // 8-byte alignment of the doubles that follow
  io.f64(m.sigma, "sigma");
  io.f64(m.divergence_guard, "divergence_guard");
  io.u64(m.frame_deadline_ms, "frame_deadline_ms");
  io.u64(m.client_tag, "client_tag");
  io.check(m.iters != 0, "iters: a session needs >= 1 iteration");
  io.check(m.coils != 0 && m.coils <= kMaxCoils,
           "coils: session coils outside [1, 1024]");
  io.check(m.warm_start <= 1, "warm_start: must be 0 or 1");
}

template <class IO, Is<SessionReplyWire> M>
void layout(IO& io, M& m) {
  io.status(m.status);
  io.pad();
  io.u64(m.session_id, "session_id");
  io.u64(m.client_tag, "client_tag");
  io.u64(m.frames, "frames");
  io.u64(m.total_iterations, "total_iterations");
  io.message(m.message);
}

template <class IO, Is<PushFrameWire> M>
void layout(IO& io, M& m) {
  io.version();
  io.u32(m.coils, "coils");
  io.u64(m.session_id, "session_id");
  io.u64(m.frame_index, "frame_index");
  io.u64(m.deadline_ms, "deadline_ms");
  io.u64(m.client_tag, "client_tag");
  io.check(m.coils != 0, "coils: must be >= 1");
  io.samples(m.coords, m.values, m.coils);
  io.check(!m.coords.empty(), "m: empty frame");
}

template <class IO, Is<FrameReplyWire> M>
void layout(IO& io, M& m) {
  io.status(m.status);
  io.u32(m.n, "n");
  io.u32(m.iterations, "iterations");
  io.u32(m.flags, "flags");
  io.u64(m.session_id, "session_id");
  io.u64(m.frame_index, "frame_index");
  io.u64(m.client_tag, "client_tag");
  io.f64(m.residual, "residual");
  io.message(m.message);
  io.image(m.image);
}

template <class IO, Is<CloseSessionWire> M>
void layout(IO& io, M& m) {
  io.version();
  io.pad();
  io.u64(m.session_id, "session_id");
  io.u64(m.client_tag, "client_tag");
}

template <class M>
std::vector<std::uint8_t> encode(const M& m) {
  Writer w;
  layout(w, m);
  return w.take();
}

template <class M>
M decode(const std::uint8_t* data, std::size_t len, bool skip_pixels = false) {
  Reader r(data, len, skip_pixels);
  M m;
  layout(r, m);
  r.expect_consumed();
  return m;
}

/// Write exactly `len` bytes. `timeout_ms < 0` blocks indefinitely;
/// otherwise the WHOLE write must finish within `timeout_ms` of wall clock
/// (a per-send timeout would let a drip-feeding peer stall the caller
/// forever). On timeout the stream is left mid-frame — unrecoverable, the
/// caller must close the connection.
void write_all(int fd, const void* data, std::size_t len, int timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a process signal.
    const int flags = MSG_NOSIGNAL | (timeout_ms >= 0 ? MSG_DONTWAIT : 0);
    const ssize_t w = ::send(fd, p, len, flags);
    if (w > 0) {
      p += w;
      len -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && timeout_ms >= 0 &&
        (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const std::int64_t left = timeout_ms - elapsed_ms;
      if (left <= 0) {
        throw std::runtime_error("serve: send timed out after " +
                                 std::to_string(timeout_ms) + " ms (" +
                                 std::to_string(len) + " bytes unwritten)");
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int r =
          ::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(left, 100)));
      if (r < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("serve: poll failed: ") +
                                 std::strerror(errno));
      }
      continue;
    }
    throw std::runtime_error(std::string("serve: send failed: ") +
                             std::strerror(errno));
  }
}

/// Read exactly `len` bytes. Returns false on EOF with zero bytes read when
/// `eof_ok`; EOF mid-read always throws (truncated frame). When a deadline
/// is given, every wait is bounded by the time remaining to it and running
/// out raises RecvTimeout (timeout_ms only labels the message).
bool read_all(int fd, void* data, std::size_t len, bool eof_ok,
              const std::chrono::steady_clock::time_point* deadline = nullptr,
              int timeout_ms = -1) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    if (deadline != nullptr) {
      const auto left_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              *deadline - std::chrono::steady_clock::now())
              .count();
      if (left_ms <= 0) throw RecvTimeout(timeout_ms);
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(
          &pfd, 1, static_cast<int>(std::min<std::int64_t>(left_ms, 100)));
      if (ready < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("serve: poll failed: ") +
                                 std::strerror(errno));
      }
      if (ready <= 0) continue;  // re-check the deadline, then recv
    }
    const ssize_t r = ::recv(fd, p + got, len - got,
                             deadline != nullptr ? MSG_DONTWAIT : 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (deadline != nullptr && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;  // poll raced a consumer; wait again
      }
      if (got == 0 && eof_ok && errno == ECONNRESET) {
        // A peer that closes with unread inbound data resets the
        // connection (a draining server whose reader retired without
        // consuming our request does exactly this). At frame start, with
        // zero bytes received, no reply ever existed — the same situation
        // as a clean close before replying, so report EOF and let the
        // caller take its retry path instead of a terminal stream error.
        return false;
      }
      throw std::runtime_error(std::string("serve: recv failed: ") +
                               std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw ProtocolError("connection closed mid-frame (" +
                          std::to_string(got) + "/" + std::to_string(len) +
                          " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kSanitizedPartial: return "SANITIZED_PARTIAL";
    case Status::kTimeout: return "TIMEOUT";
    case Status::kRejected: return "REJECTED";
    case Status::kError: return "ERROR";
  }
  return "UNKNOWN";
}

// Every public encode_X / decode_X pair runs X's layout.
#define JIGSAW_SERVE_CODEC(name, Wire)                                    \
  std::vector<std::uint8_t> encode_##name(const Wire& m) {                \
    return encode(m);                                                     \
  }                                                                       \
  Wire decode_##name(const std::uint8_t* data, std::size_t len) {         \
    return decode<Wire>(data, len);                                       \
  }
JIGSAW_SERVE_CODEC(recon_request, ReconRequestWire)
JIGSAW_SERVE_CODEC(recon_reply, ReconReplyWire)
JIGSAW_SERVE_CODEC(open_session, OpenSessionWire)
JIGSAW_SERVE_CODEC(session_reply, SessionReplyWire)
JIGSAW_SERVE_CODEC(push_frame, PushFrameWire)
JIGSAW_SERVE_CODEC(frame_reply, FrameReplyWire)
JIGSAW_SERVE_CODEC(close_session, CloseSessionWire)
#undef JIGSAW_SERVE_CODEC

ReplyHead peek_reply(MsgType type, const std::uint8_t* data, std::size_t len) {
  const auto head = [](auto&& reply) {
    return ReplyHead{reply.status, std::move(reply.message)};
  };
  switch (type) {
    case MsgType::kReconReply:
      return head(decode<ReconReplyWire>(data, len, /*skip_pixels=*/true));
    case MsgType::kSessionReply:
      return head(decode<SessionReplyWire>(data, len));
    default:
      throw ProtocolError("type: " +
                          std::to_string(static_cast<std::uint32_t>(type)) +
                          " is not a reply with a status");
  }
}

void send_frame(int fd, MsgType type, const std::uint8_t* body,
                std::size_t len, int timeout_ms) {
  const FrameHeader header{kMagic, static_cast<std::uint32_t>(type), len};
  write_all(fd, &header, sizeof header, timeout_ms);
  if (len > 0) write_all(fd, body, len, timeout_ms);
}

bool recv_frame(int fd, Frame& out, std::size_t max_body, int timeout_ms) {
  std::chrono::steady_clock::time_point deadline_storage;
  const std::chrono::steady_clock::time_point* deadline = nullptr;
  if (timeout_ms >= 0) {
    deadline_storage = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
    deadline = &deadline_storage;
  }
  FrameHeader header;
  if (!read_all(fd, &header, sizeof header, /*eof_ok=*/true, deadline,
                timeout_ms)) {
    return false;
  }
  if (header.magic != kMagic) {
    char hex[9];
    std::snprintf(hex, sizeof hex, "%08x",
                  static_cast<unsigned>(header.magic));
    throw ProtocolError("bad magic 0x" + std::string(hex));
  }
  switch (static_cast<MsgType>(header.type)) {
    case MsgType::kRecon:
    case MsgType::kStats:
    case MsgType::kOpenSession:
    case MsgType::kPushFrame:
    case MsgType::kCloseSession:
    case MsgType::kReconReply:
    case MsgType::kStatsReply:
    case MsgType::kSessionReply:
    case MsgType::kFrameReply:
      break;
    default:
      throw ProtocolError("unknown message type " +
                          std::to_string(header.type));
  }
  if (header.body_len > max_body) {
    throw FrameTooLarge(static_cast<MsgType>(header.type), header.body_len,
                        max_body);
  }
  out.type = static_cast<MsgType>(header.type);
  out.body.resize(static_cast<std::size_t>(header.body_len));
  if (header.body_len > 0) {
    read_all(fd, out.body.data(), out.body.size(), /*eof_ok=*/false, deadline,
             timeout_ms);
  }
  return true;
}

}  // namespace jigsaw::serve
