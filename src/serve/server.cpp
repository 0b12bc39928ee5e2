#include "serve/server.hpp"

#include <sys/socket.h>

#include <stdexcept>

namespace jigsaw::serve {

namespace {

/// decode_engine, refusing an unknown code as a protocol error.
core::GridderKind wire_engine(std::uint32_t engine) {
  try {
    return decode_engine(engine);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(e.what());
  }
}

}  // namespace

ReconJob job_from_wire(const ReconRequestWire& wire) {
  const core::GridderKind kind = wire_engine(wire.engine);
  if (wire.sanitize >
      static_cast<std::uint32_t>(robustness::SanitizePolicy::Clamp)) {
    throw ProtocolError("unknown sanitize code " +
                        std::to_string(wire.sanitize));
  }
  if (wire.kernel_width < 2 || wire.kernel_width > 16) {
    throw ProtocolError("kernel width " + std::to_string(wire.kernel_width) +
                        " outside [2, 16]");
  }
  if (!(wire.sigma >= 1.125 && wire.sigma <= 4.0)) {  // !>= rejects NaN too
    throw ProtocolError("oversampling sigma outside [1.125, 4]");
  }
  if (wire.values.size() !=
      wire.coords.size() * static_cast<std::size_t>(wire.coils)) {
    throw ProtocolError("value count does not equal samples x coils");
  }
  ReconJob job;
  job.options.kind = kind;
  job.options.width = static_cast<int>(wire.kernel_width);
  job.options.sigma = wire.sigma;
  job.options.sanitize =
      static_cast<robustness::SanitizePolicy>(wire.sanitize);
  job.n = wire.n;
  job.iters = static_cast<int>(wire.iters);
  job.coils = static_cast<int>(wire.coils);
  job.deadline = wire.deadline_ms > 0
                     ? Deadline::after_ms(
                           static_cast<std::int64_t>(wire.deadline_ms))
                     : Deadline::never();
  job.samples.coords = wire.coords;
  job.samples.values = wire.values;
  job.client_tag = wire.client_tag;
  return job;
}

StreamFrameJob frame_job_from_wire(PushFrameWire&& wire) {
  StreamFrameJob job;
  job.session_id = wire.session_id;
  job.frame_index = wire.frame_index;
  job.client_tag = wire.client_tag;
  job.coils = static_cast<int>(wire.coils);
  job.deadline = wire.deadline_ms > 0
                     ? Deadline::after_ms(
                           static_cast<std::int64_t>(wire.deadline_ms))
                     : Deadline::never();
  job.coords = std::move(wire.coords);
  job.values = std::move(wire.values);
  return job;
}

ReconServer::ReconServer(const ServeConfig& config)
    : config_(config), engine_(config) {
  if (config_.socket_path.empty() && config_.listen.empty()) {
    throw std::runtime_error(
        "serve: no endpoint configured (need socket_path and/or listen)");
  }
  if (!config_.socket_path.empty()) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = config_.socket_path;
    add_listener(ep);
  }
  if (!config_.listen.empty()) {
    const Endpoint ep = parse_endpoint(config_.listen);
    if (!ep.is_tcp()) {
      throw std::runtime_error("serve: listen endpoint '" + config_.listen +
                               "' is not host:port (use socket_path for "
                               "AF_UNIX)");
    }
    add_listener(ep);
  }
}

ReconServer::~ReconServer() { stop(); }

int ReconServer::shutdown_how() const { return SHUT_RD; }

void ReconServer::send_reply_locked(const std::shared_ptr<Connection>& conn,
                                    const ReconReplyWire& reply) {
  const auto body = encode_recon_reply(reply);
  std::lock_guard<std::mutex> lk(conn->write_mu);
  send_frame(conn->fd, MsgType::kReconReply, body,
             config_.reply_write_timeout_ms);
}

void ReconServer::send_session_reply_locked(
    const std::shared_ptr<Connection>& conn, const SessionReplyWire& reply) {
  const auto body = encode_session_reply(reply);
  std::lock_guard<std::mutex> lk(conn->write_mu);
  send_frame(conn->fd, MsgType::kSessionReply, body,
             config_.reply_write_timeout_ms);
}

void ReconServer::send_frame_reply_locked(
    const std::shared_ptr<Connection>& conn, const FrameReplyWire& reply) {
  const auto body = encode_frame_reply(reply);
  std::lock_guard<std::mutex> lk(conn->write_mu);
  send_frame(conn->fd, MsgType::kFrameReply, body,
             config_.reply_write_timeout_ms);
}

bool ReconServer::handle_stream_frame(const std::shared_ptr<Connection>& conn,
                                      const Frame& frame) {
  if (frame.type == MsgType::kOpenSession) {
    SessionReplyWire reply;
    try {
      const OpenSessionWire wire =
          decode_open_session(frame.body.data(), frame.body.size());
      const SessionOutcome outcome = engine_.open_session(wire);
      reply.status = outcome.status;
      reply.session_id = outcome.session_id;
      reply.client_tag = outcome.client_tag;
      reply.message = outcome.message;
    } catch (const std::exception& e) {
      // Recovering parse: the malformed body was fully consumed.
      reply.status = Status::kError;
      reply.message = e.what();
    }
    try {
      send_session_reply_locked(conn, reply);
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  if (frame.type == MsgType::kCloseSession) {
    CloseSessionWire wire;
    try {
      wire = decode_close_session(frame.body.data(), frame.body.size());
    } catch (const std::exception& e) {
      SessionReplyWire reply;
      reply.status = Status::kError;
      reply.message = e.what();
      try {
        send_session_reply_locked(conn, reply);
        return true;
      } catch (const std::exception&) {
        return false;
      }
    }
    engine_.submit_close(
        wire.session_id, wire.client_tag, [this, conn](SessionOutcome o) {
          SessionReplyWire reply;
          reply.status = o.status;
          reply.session_id = o.session_id;
          reply.client_tag = o.client_tag;
          reply.frames = o.frames;
          reply.total_iterations = o.total_iterations;
          reply.message = std::move(o.message);
          try {
            send_session_reply_locked(conn, reply);
          } catch (const std::exception&) {
            ::shutdown(conn->fd, SHUT_RDWR);
          }
        });
    return true;
  }

  // kPushFrame
  StreamFrameJob job;
  try {
    PushFrameWire wire =
        decode_push_frame(frame.body.data(), frame.body.size());
    job = frame_job_from_wire(std::move(wire));
  } catch (const std::exception& e) {
    FrameReplyWire reply;
    reply.status = Status::kError;
    reply.message = e.what();
    try {
      send_frame_reply_locked(conn, reply);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }
  engine_.submit_frame(std::move(job), [this, conn](FrameOutcome o) {
    FrameReplyWire reply;
    reply.status = o.status;
    reply.n = static_cast<std::uint32_t>(o.n);
    reply.iterations = static_cast<std::uint32_t>(o.iterations);
    reply.flags = (o.warm_started ? kFrameWarmFlag : 0u) |
                  (o.guard_tripped ? kFrameGuardFlag : 0u) |
                  (o.plan_reused ? kFramePlanReusedFlag : 0u);
    reply.session_id = o.session_id;
    reply.frame_index = o.frame_index;
    reply.client_tag = o.client_tag;
    reply.residual = o.residual;
    reply.message = std::move(o.message);
    reply.image = std::move(o.image);
    try {
      send_frame_reply_locked(conn, reply);
    } catch (const std::exception&) {
      // The frame still completed and is counted; the stream is
      // unrecoverable, so unblock and retire the reader.
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  });
  return true;
}

void ReconServer::serve_connection(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Frame frame;
    try {
      if (!recv_frame(conn->fd, frame, config_.max_request_bytes)) {
        return;  // clean EOF
      }
    } catch (const FrameTooLarge& e) {
      // Admission control at the socket: the body was never read, so the
      // stream cannot be resynchronized — reply, count, close.
      engine_.count_external(Status::kRejected);
      ReconReplyWire reply;
      reply.status = Status::kRejected;
      reply.message = e.what();
      try {
        send_reply_locked(conn, reply);
      } catch (const std::exception&) {
      }
      return;
    } catch (const std::exception&) {
      return;  // bad magic / unknown type / truncation / peer I/O error
    }

    if (frame.type == MsgType::kStats) {
      const std::string json = engine_.statsz_json();
      std::lock_guard<std::mutex> lk(conn->write_mu);
      try {
        send_frame(conn->fd, MsgType::kStatsReply,
                   reinterpret_cast<const std::uint8_t*>(json.data()),
                   json.size(), config_.reply_write_timeout_ms);
      } catch (const std::exception&) {
        return;
      }
      continue;
    }
    if (frame.type == MsgType::kOpenSession ||
        frame.type == MsgType::kPushFrame ||
        frame.type == MsgType::kCloseSession) {
      if (!handle_stream_frame(conn, frame)) return;
      continue;
    }
    if (frame.type != MsgType::kRecon) {
      return;  // a client sending reply types is not salvageable
    }

    ReconJob job;
    try {
      const ReconRequestWire wire =
          decode_recon_request(frame.body.data(), frame.body.size());
      job = job_from_wire(wire);
    } catch (const std::exception& e) {
      // Recovering parse: the malformed body was fully consumed, so the
      // connection survives. ERROR is terminal for this request only.
      engine_.count_external(Status::kError);
      ReconReplyWire reply;
      reply.status = Status::kError;
      reply.message = e.what();
      try {
        send_reply_locked(conn, reply);
      } catch (const std::exception&) {
        return;
      }
      continue;
    }

    engine_.submit(std::move(job), [this, conn](ReconOutcome outcome) {
      ReconReplyWire reply;
      reply.status = outcome.status;
      reply.n = static_cast<std::uint32_t>(outcome.n);
      reply.client_tag = outcome.client_tag;
      reply.sanitize_dropped = outcome.sanitize_dropped;
      reply.sanitize_repaired = outcome.sanitize_repaired;
      reply.message = std::move(outcome.message);
      reply.image = std::move(outcome.image);
      try {
        send_reply_locked(conn, reply);
      } catch (const std::exception&) {
        // Peer gone or reply write timed out mid-frame: the request still
        // completed and the counters already account for it, but the
        // stream is unrecoverable. Shut the socket down so the reader
        // unblocks, exits, and retires the connection.
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    });
  }
}

}  // namespace jigsaw::serve
