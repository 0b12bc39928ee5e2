// ServeClient: a blocking client for jigsaw_serve / jigsaw_router.
//
// One client owns one connection to an endpoint — "unix:/path" (or a bare
// absolute path) or "host:port", parsed by serve/transport.hpp; the JSRV
// framed protocol is identical on either transport. recon() and statsz()
// are synchronous request/reply round-trips; raw-frame helpers exist for
// protocol tests (malformed bodies, oversized headers, mid-frame
// disconnects) and are not part of the stable surface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace jigsaw::serve {

class ServeClient {
 public:
  /// Connect to `endpoint_spec` (see parse_endpoint). Throws
  /// std::invalid_argument on a malformed spec, std::runtime_error on
  /// connection failure.
  explicit ServeClient(const std::string& endpoint_spec);
  explicit ServeClient(const Endpoint& endpoint);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Synchronous reconstruction round-trip.
  ReconReplyWire recon(const ReconRequestWire& request);

  /// Fetch the /statsz JSON snapshot.
  std::string statsz();

  // --- streaming sessions ---------------------------------------------
  /// Open a streaming session (synchronous). The reply's session_id keys
  /// every subsequent push/close; status != kOk means no session exists.
  SessionReplyWire open_session(const OpenSessionWire& request);
  /// Push one frame and block for its reply.
  FrameReplyWire push_frame(const PushFrameWire& request);
  /// Close a session; the reply carries the session's lifetime totals.
  SessionReplyWire close_session(const CloseSessionWire& request);

  /// Pipelined streaming: send a push without waiting for its reply, then
  /// collect replies (in submission order — frames of one session execute
  /// FIFO) with recv_frame_reply(). Used by the drain test to have frames
  /// in flight when SIGTERM lands.
  void send_push_frame(const PushFrameWire& request);
  FrameReplyWire recv_frame_reply();
  SessionReplyWire recv_session_reply();

  // --- protocol-test helpers ------------------------------------------
  /// Send a frame with an arbitrary body (may be malformed on purpose).
  void send_raw(MsgType type, const std::vector<std::uint8_t>& body);
  /// Send only a frame header advertising `body_len` bytes (never sent).
  void send_raw_header(std::uint32_t type, std::uint64_t body_len);
  /// Send arbitrary bytes mid-stream (e.g. part of an advertised body
  /// before disconnecting).
  void send_raw_bytes(const std::vector<std::uint8_t>& bytes);
  /// Half-close the write side: the server sees EOF after the bytes sent
  /// so far — the mid-frame-disconnect probe.
  void shutdown_write();
  /// Block until one reply frame arrives.
  ReconReplyWire recv_recon_reply();

  int fd() const { return fd_; }

 private:
  Frame recv_reply_frame();

  int fd_ = -1;
};

}  // namespace jigsaw::serve
