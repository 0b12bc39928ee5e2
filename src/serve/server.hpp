// ReconServer: the socket front of the reconstruction service.
//
// One server owns its listening sockets and a ServeEngine. It listens on a
// Unix-domain socket (ServeConfig::socket_path), a TCP endpoint
// (ServeConfig::listen, "host:port" — bind 127.0.0.1 unless the operator
// names another interface explicitly), or both at once; the JSRV framed
// protocol is identical on either transport. The accept loop, connection
// reaping, and graceful stop() live in the shared FrameServer base
// (serve/transport.hpp) — the router tier reuses the same skeleton.
//
// Each connection gets a reader thread that parses frames and submits jobs.
// Completion callbacks run on the engine's dispatcher thread and write
// replies under the connection's write mutex, so a client may pipeline
// requests — replies carry the request's client_tag for matching and may
// arrive out of order across geometries (FIFO within one geometry group).
//
// Error mapping at the socket layer:
//   * frame body over max_request_bytes  -> REJECTED reply, connection
//     closed (the oversized body was never read; the stream cannot be
//     resynchronized);
//   * body that fails the recovering decode -> ERROR reply, connection
//     kept (the bad body was fully consumed);
//   * bad magic / unknown type / truncated frame -> connection closed.
//
// Reply writes are bounded by ServeConfig::reply_write_timeout_ms so a
// client that stops reading cannot stall the dispatcher thread (or a
// drain) indefinitely.
//
// stop() is the graceful-drain path SIGTERM triggers in jigsaw_serve:
// stop accepting, drain the engine (every admitted job completes), then
// shut down remaining connections and join their threads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace jigsaw::serve {

/// Validate a decoded wire request and convert it to an engine job.
/// Throws ProtocolError on out-of-enum engine / sanitize codes.
ReconJob job_from_wire(const ReconRequestWire& wire);

/// Convert a decoded push-frame body to an engine streaming job (the
/// session-level cross-checks — coils, sample caps — run in submit_frame).
StreamFrameJob frame_job_from_wire(PushFrameWire&& wire);

class ReconServer : public FrameServer {
 public:
  /// Binds and listens on config.socket_path (AF_UNIX, an existing socket
  /// file is replaced) and/or config.listen (TCP). At least one must be
  /// set. Throws std::runtime_error on bind/listen failure.
  explicit ReconServer(const ServeConfig& config);
  ~ReconServer() override;  // stop(), if still running

  ServeEngine& engine() { return engine_; }
  const std::string& socket_path() const { return config_.socket_path; }

 protected:
  void serve_connection(const std::shared_ptr<Connection>& conn) override;
  void on_stop_accepting() override { engine_.drain(); }
  // SHUT_RD, not SHUT_RDWR: by the time stop() tears down connections the
  // engine is drained, so the only writes left are reader threads answering
  // post-drain requests with REJECTED "draining". Cutting the write side
  // could truncate such a reply mid-frame — the router would see a broken
  // reply stream (terminal ERROR, no spill) instead of the rejection that
  // sends the request to a healthy worker. Read-side shutdown still makes
  // every blocked reader see EOF and retire; the pending reply writes are
  // bounded by reply_write_timeout_ms, so the join cannot hang.
  int shutdown_how() const override;

 private:
  void send_reply_locked(const std::shared_ptr<Connection>& conn,
                         const ReconReplyWire& reply);
  void send_session_reply_locked(const std::shared_ptr<Connection>& conn,
                                 const SessionReplyWire& reply);
  void send_frame_reply_locked(const std::shared_ptr<Connection>& conn,
                               const FrameReplyWire& reply);
  // One iteration of serve_connection's loop for the streaming message
  // types; returns false when the connection must close.
  bool handle_stream_frame(const std::shared_ptr<Connection>& conn,
                           const Frame& frame);

  const ServeConfig config_;
  ServeEngine engine_;
};

}  // namespace jigsaw::serve
