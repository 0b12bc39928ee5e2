// Wire protocol for the jigsaw_serve reconstruction daemon.
//
// Transport: a Unix-domain stream socket carrying length-prefixed frames.
// Every frame is a 16-byte header (FrameHeader) followed by `body_len`
// payload bytes:
//
//   u32 magic      0x4A535256 ("JSRV")
//   u32 type       MsgType
//   u64 body_len   payload bytes that follow
//
// Integers and doubles are host-endian: the socket never leaves the
// machine, so the protocol trades portability for zero-copy encode/decode
// of multi-megabyte sample payloads (coordinates and values travel as the
// host's arrays, one bulk copy each). docs/serving.md documents the framing
// and the per-field layout below.
//
// Each body's layout is stated once, in its layout() in protocol.cpp; the
// encode_* and decode_* pair of a body both run it. decode_* performs a
// *recovering* parse — every length, range and enum is validated, every
// count is preflighted against the bytes actually present before anything
// is allocated, and any violation raises ProtocolError, which the server
// maps to a Status::kError reply instead of tearing down the process.
// Encoders never validate. A frame whose advertised body_len exceeds the
// receiver's limit raises FrameTooLarge *before* the body is read, which
// the server maps to Status::kRejected (admission control, not a malformed
// client).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/gridder.hpp"

namespace jigsaw::serve {

inline constexpr std::uint32_t kMagic = 0x4A535256;  // "JSRV"
inline constexpr std::uint32_t kProtocolVersion = 1;

enum class MsgType : std::uint32_t {
  kRecon = 1,       // ReconRequestWire body
  kStats = 2,       // empty body; answered with kStatsReply
  kOpenSession = 3,   // OpenSessionWire body; answered with kSessionReply
  kPushFrame = 4,     // PushFrameWire body; answered with kFrameReply
  kCloseSession = 5,  // CloseSessionWire body; answered with kSessionReply
  kReconReply = 101,
  kStatsReply = 102,  // UTF-8 JSON text body (the /statsz snapshot)
  kSessionReply = 103,  // SessionReplyWire body (open + close)
  kFrameReply = 104,    // FrameReplyWire body
};

/// Per-request terminal status, echoed in every recon reply and counted by
/// the serve.* per-status counters.
enum class Status : std::uint32_t {
  kOk = 0,
  kSanitizedPartial = 1,  // succeeded, but the sanitizer dropped/repaired
                          // samples first (response carries the detail)
  kTimeout = 2,           // deadline passed at a phase boundary
  kRejected = 3,          // admission control: queue full, oversized,
                          // limits exceeded, or server draining
  kError = 4,             // malformed request or reconstruction failure
};

const char* to_string(Status s);

class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("protocol: " + what) {}
};

/// A frame header advertised a body larger than the receiver allows. The
/// body has NOT been consumed; the connection cannot be resynchronized and
/// must be closed after the rejection reply.
class FrameTooLarge : public ProtocolError {
 public:
  FrameTooLarge(std::uint64_t advertised_bytes, std::uint64_t limit_bytes)
      : ProtocolError("frame body of " + std::to_string(advertised_bytes) +
                      " bytes exceeds limit of " +
                      std::to_string(limit_bytes)),
        advertised(advertised_bytes),
        limit(limit_bytes) {}
  std::uint64_t advertised;
  std::uint64_t limit;
};

/// Wire code of an engine (decode_engine in serve/engine.hpp reads it
/// back): the core::GridderKind value. Every body defaults to core's
/// default engine.
constexpr std::uint32_t engine_code(core::GridderKind kind) {
  return static_cast<std::uint32_t>(kind);
}

/// Recon request body. Layout (in order):
///   u32 version, u32 engine, u32 n, u32 iters, u32 coils, u32 sanitize,
///   u32 kernel_width, u32 pad, f64 sigma, u64 deadline_ms, u64 client_tag,
///   u64 m, f64 coords[2*m], f64 values[2*m*coils]
/// Values are per-coil blocks of m complex samples (coil-major).
/// deadline_ms == 0 means unbounded.
struct ReconRequestWire {
  std::uint32_t engine = engine_code(core::kDefaultEngine);
  std::uint32_t n = 128;      // base grid side
  std::uint32_t iters = 0;    // 0 = adjoint-only, >0 = CG iterations; with
                              // coils > 1 (where adjoint-only is undefined)
                              // 0 selects the server's default CG-SENSE
                              // depth (ServeConfig::default_sense_iters,
                              // 10) and the reply message reports it
  std::uint32_t coils = 1;    // >1 = CG-SENSE with server-side birdcage maps
  std::uint32_t sanitize = 0; // robustness::SanitizePolicy
  std::uint32_t kernel_width = 6;
  double sigma = 2.0;
  std::uint64_t deadline_ms = 0;
  std::uint64_t client_tag = 0;  // echoed verbatim in the reply
  std::vector<Coord<2>> coords;  // m
  std::vector<c64> values;       // m * coils
};

/// Recon reply body. Layout:
///   u32 status, u32 n, u64 client_tag, u64 sanitize_dropped,
///   u64 sanitize_repaired, u32 msg_len, u8 msg[msg_len],
///   u64 pixel_count, f64 image[2*pixel_count]
struct ReconReplyWire {
  Status status = Status::kError;
  std::uint32_t n = 0;
  std::uint64_t client_tag = 0;
  std::uint64_t sanitize_dropped = 0;
  std::uint64_t sanitize_repaired = 0;
  std::string message;
  std::vector<c64> image;  // n*n pixels when status is OK/SANITIZED_PARTIAL
};

std::vector<std::uint8_t> encode_recon_request(const ReconRequestWire& req);
ReconRequestWire decode_recon_request(const std::uint8_t* data,
                                      std::size_t len);

std::vector<std::uint8_t> encode_recon_reply(const ReconReplyWire& reply);
ReconReplyWire decode_recon_reply(const std::uint8_t* data, std::size_t len);

// --- streaming sessions ---------------------------------------------------
//
// A session is the wire surface of one stream::FramePipeline living on one
// worker: open-session fixes the frame geometry class (grid, engine,
// kernel, coils, CG depth) and the warm-start policy; each push-frame
// carries one frame's trajectory + samples and is answered in order with
// the frame's image and solver stats; close-session tears the state down
// and reports session totals. Frames of one session execute FIFO on the
// worker's dispatcher (never fused with other jobs — the pipeline's
// warm-start state is inherently sequential). The router pins a session to
// the worker that answered its open (docs/streaming.md).

/// Open-session body. Layout:
///   u32 version, u32 engine, u32 n, u32 iters, u32 coils,
///   u32 kernel_width, u32 warm_start, u32 pad, f64 sigma,
///   f64 divergence_guard, u64 frame_deadline_ms, u64 client_tag
/// `iters` >= 1 (a session exists to iterate; adjoint-only streaming does
/// not need session state). frame_deadline_ms is the per-frame default
/// (0 = unbounded); push-frame may override per frame.
struct OpenSessionWire {
  std::uint32_t engine = engine_code(core::kDefaultEngine);
  std::uint32_t n = 128;
  std::uint32_t iters = 10;
  std::uint32_t coils = 1;
  std::uint32_t kernel_width = 6;
  std::uint32_t warm_start = 1;  // 0/1
  double sigma = 2.0;
  double divergence_guard = 1.0;  // <= 0 disables the guard
  std::uint64_t frame_deadline_ms = 0;
  std::uint64_t client_tag = 0;
};

/// Reply to open-session AND close-session. Layout:
///   u32 status, u32 pad, u64 session_id, u64 client_tag, u64 frames,
///   u64 total_iterations, u32 msg_len, u8 msg[msg_len]
/// `frames` / `total_iterations` are session totals (close; zero on open).
struct SessionReplyWire {
  Status status = Status::kError;
  std::uint64_t session_id = 0;
  std::uint64_t client_tag = 0;
  std::uint64_t frames = 0;
  std::uint64_t total_iterations = 0;
  std::string message;
};

/// Push-frame body. Layout:
///   u32 version, u32 coils, u64 session_id, u64 frame_index,
///   u64 deadline_ms, u64 client_tag, u64 m, f64 coords[2*m],
///   f64 values[2*m*coils]
/// `coils` must repeat the session's coil count (it sizes the payload for
/// the recovering decode); deadline_ms == 0 uses the session default.
struct PushFrameWire {
  std::uint32_t coils = 1;
  std::uint64_t session_id = 0;
  std::uint64_t frame_index = 0;
  std::uint64_t deadline_ms = 0;
  std::uint64_t client_tag = 0;
  std::vector<Coord<2>> coords;
  std::vector<c64> values;  // m * coils, coil-major blocks
};

/// FrameReplyWire::flags bits.
inline constexpr std::uint32_t kFrameWarmFlag = 1u;        // warm-seeded
inline constexpr std::uint32_t kFrameGuardFlag = 2u;       // guard tripped
inline constexpr std::uint32_t kFramePlanReusedFlag = 4u;  // plan reused

/// Per-frame reply. Layout:
///   u32 status, u32 n, u32 iterations, u32 flags, u64 session_id,
///   u64 frame_index, u64 client_tag, f64 residual, u32 msg_len,
///   u8 msg[msg_len], u64 pixel_count, f64 image[2*pixel_count]
struct FrameReplyWire {
  Status status = Status::kError;
  std::uint32_t n = 0;
  std::uint32_t iterations = 0;
  std::uint32_t flags = 0;
  std::uint64_t session_id = 0;
  std::uint64_t frame_index = 0;
  std::uint64_t client_tag = 0;
  double residual = 0.0;
  std::string message;
  std::vector<c64> image;
};

/// Close-session body. Layout:
///   u32 version, u32 pad, u64 session_id, u64 client_tag
struct CloseSessionWire {
  std::uint64_t session_id = 0;
  std::uint64_t client_tag = 0;
};

std::vector<std::uint8_t> encode_open_session(const OpenSessionWire& req);
OpenSessionWire decode_open_session(const std::uint8_t* data,
                                    std::size_t len);

std::vector<std::uint8_t> encode_session_reply(const SessionReplyWire& reply);
SessionReplyWire decode_session_reply(const std::uint8_t* data,
                                      std::size_t len);

std::vector<std::uint8_t> encode_push_frame(const PushFrameWire& req);
PushFrameWire decode_push_frame(const std::uint8_t* data, std::size_t len);

std::vector<std::uint8_t> encode_frame_reply(const FrameReplyWire& reply);
FrameReplyWire decode_frame_reply(const std::uint8_t* data, std::size_t len);

std::vector<std::uint8_t> encode_close_session(const CloseSessionWire& req);
CloseSessionWire decode_close_session(const std::uint8_t* data,
                                      std::size_t len);

/// Status and message of a reply body, as decode_* would return them.
struct ReplyHead {
  Status status = Status::kError;
  std::string message;
};

/// Read only the status and message of a kReconReply or kSessionReply
/// body. Accepts and rejects exactly the bodies the full decoder does
/// (image byte count included) but never allocates or copies pixels — the
/// router's per-reply peek. Throws ProtocolError on any other type.
ReplyHead peek_reply(MsgType type, const std::uint8_t* data, std::size_t len);

/// The frame header in wire order; frames are sent and received as its
/// bytes.
struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t type = 0;
  std::uint64_t body_len = 0;
};
static_assert(sizeof(FrameHeader) == 16, "the frame header is 16 bytes");

/// One received frame.
struct Frame {
  MsgType type = MsgType::kRecon;
  std::vector<std::uint8_t> body;
};

/// Write one frame (header + body), retrying on EINTR/partial writes.
/// Throws std::runtime_error on I/O failure (e.g. peer gone). When
/// timeout_ms >= 0, each of header and body must complete within that many
/// milliseconds of wall clock or the call throws — the frame is then only
/// partially written and the connection must be closed. timeout_ms < 0
/// blocks indefinitely (client side, where the server reads promptly).
void send_frame(int fd, MsgType type, const std::uint8_t* body,
                std::size_t len, int timeout_ms = -1);
inline void send_frame(int fd, MsgType type,
                       const std::vector<std::uint8_t>& body,
                       int timeout_ms = -1) {
  send_frame(fd, type, body.data(), body.size(), timeout_ms);
}

/// A bounded recv_frame ran out of wall clock. Distinct from ProtocolError:
/// the peer did nothing wrong, it is just too slow — the caller decides
/// whether that terminates the request (router: ERROR, never hang).
class RecvTimeout : public std::runtime_error {
 public:
  explicit RecvTimeout(int timeout_ms)
      : std::runtime_error("serve: recv timed out after " +
                           std::to_string(timeout_ms) + " ms") {}
};

/// Read one frame. Returns false on clean EOF before any header byte.
/// Throws ProtocolError on bad magic / unknown type / truncation and
/// FrameTooLarge when body_len > max_body (body unread — close afterwards).
/// When timeout_ms >= 0 the WHOLE frame must arrive within that many
/// milliseconds of wall clock or RecvTimeout is thrown (the stream may then
/// be mid-frame — unrecoverable, close the connection).
bool recv_frame(int fd, Frame& out, std::size_t max_body,
                int timeout_ms = -1);

}  // namespace jigsaw::serve
