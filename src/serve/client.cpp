#include "serve/client.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace jigsaw::serve {

namespace {
// Replies are images (16 bytes/pixel): 1 GiB covers n = 8192 and the
// decoder's own sanity ceilings apply first.
constexpr std::size_t kMaxReplyBody = 1ull << 30;
}  // namespace

ServeClient::ServeClient(const std::string& endpoint_spec)
    : ServeClient(parse_endpoint(endpoint_spec)) {}

ServeClient::ServeClient(const Endpoint& endpoint)
    : fd_(connect_endpoint(endpoint)) {}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

Frame ServeClient::recv_reply_frame() {
  Frame frame;
  if (!recv_frame(fd_, frame, kMaxReplyBody)) {
    throw std::runtime_error("serve: server closed the connection");
  }
  return frame;
}

ReconReplyWire ServeClient::recon(const ReconRequestWire& request) {
  send_frame(fd_, MsgType::kRecon, encode_recon_request(request));
  return recv_recon_reply();
}

ReconReplyWire ServeClient::recv_recon_reply() {
  const Frame frame = recv_reply_frame();
  if (frame.type != MsgType::kReconReply) {
    throw ProtocolError("expected recon reply, got type " +
                        std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
  return decode_recon_reply(frame.body.data(), frame.body.size());
}

SessionReplyWire ServeClient::open_session(const OpenSessionWire& request) {
  send_frame(fd_, MsgType::kOpenSession, encode_open_session(request));
  return recv_session_reply();
}

FrameReplyWire ServeClient::push_frame(const PushFrameWire& request) {
  send_push_frame(request);
  return recv_frame_reply();
}

SessionReplyWire ServeClient::close_session(const CloseSessionWire& request) {
  send_frame(fd_, MsgType::kCloseSession, encode_close_session(request));
  return recv_session_reply();
}

void ServeClient::send_push_frame(const PushFrameWire& request) {
  send_frame(fd_, MsgType::kPushFrame, encode_push_frame(request));
}

FrameReplyWire ServeClient::recv_frame_reply() {
  const Frame frame = recv_reply_frame();
  if (frame.type != MsgType::kFrameReply) {
    throw ProtocolError("expected frame reply, got type " +
                        std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
  return decode_frame_reply(frame.body.data(), frame.body.size());
}

SessionReplyWire ServeClient::recv_session_reply() {
  const Frame frame = recv_reply_frame();
  if (frame.type != MsgType::kSessionReply) {
    throw ProtocolError("expected session reply, got type " +
                        std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
  return decode_session_reply(frame.body.data(), frame.body.size());
}

std::string ServeClient::statsz() {
  send_frame(fd_, MsgType::kStats, nullptr, 0);
  const Frame frame = recv_reply_frame();
  if (frame.type != MsgType::kStatsReply) {
    throw ProtocolError("expected stats reply, got type " +
                        std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
  return std::string(reinterpret_cast<const char*>(frame.body.data()),
                     frame.body.size());
}

void ServeClient::send_raw(MsgType type, const std::vector<std::uint8_t>& body) {
  send_frame(fd_, type, body);
}

void ServeClient::send_raw_header(std::uint32_t type, std::uint64_t body_len) {
  const FrameHeader header{kMagic, type, body_len};
  const auto* p = reinterpret_cast<const std::uint8_t*>(&header);
  send_raw_bytes({p, p + sizeof header});
}

void ServeClient::send_raw_bytes(const std::vector<std::uint8_t>& bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t len = bytes.size();
  while (len > 0) {
    const ssize_t w = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: send failed: ") +
                               std::strerror(errno));
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
}

void ServeClient::shutdown_write() { ::shutdown(fd_, SHUT_WR); }

}  // namespace jigsaw::serve
