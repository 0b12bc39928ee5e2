// Reconstruction service layer tests: wire protocol, ServeEngine admission/
// batching/deadlines via the in-process ServeSession, and the full socket
// server under concurrent mixed clients. Every Serve*/Deadline* test also
// runs in the CI TSan stage (scripts/ci.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/hash.hpp"
#include "core/nufft.hpp"
#include "core/recon.hpp"
#include "core/sense.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::serve {
namespace {

std::vector<Coord<2>> traj(std::int64_t m = 2000, std::uint64_t seed = 42) {
  return trajectory::make_2d(trajectory::TrajectoryType::Radial, m, seed);
}

std::vector<c64> phantom_data(const std::vector<Coord<2>>& coords, int n) {
  return trajectory::kspace_samples(trajectory::shepp_logan(), coords, n);
}

ReconJob make_job(std::int64_t n, const std::vector<Coord<2>>& coords) {
  ReconJob job;
  job.options.width = 4;
  job.n = n;
  job.samples.coords = coords;
  job.samples.values = phantom_data(coords, static_cast<int>(n));
  return job;
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/jsrv_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ReconRequestRoundTrip) {
  ReconRequestWire req;
  req.engine = 4;
  req.n = 48;
  req.iters = 5;
  req.coils = 2;
  req.sanitize = 3;
  req.kernel_width = 4;
  req.sigma = 1.5;
  req.deadline_ms = 1234;
  req.client_tag = 0xDEADBEEFull;
  req.coords = traj(64);
  req.values.resize(128);
  for (std::size_t i = 0; i < req.values.size(); ++i) {
    req.values[i] = c64(static_cast<double>(i), -static_cast<double>(i));
  }
  const auto bytes = encode_recon_request(req);
  const auto back = decode_recon_request(bytes.data(), bytes.size());
  EXPECT_EQ(back.engine, req.engine);
  EXPECT_EQ(back.n, req.n);
  EXPECT_EQ(back.iters, req.iters);
  EXPECT_EQ(back.coils, req.coils);
  EXPECT_EQ(back.sanitize, req.sanitize);
  EXPECT_EQ(back.kernel_width, req.kernel_width);
  EXPECT_EQ(back.sigma, req.sigma);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.client_tag, req.client_tag);
  ASSERT_EQ(back.coords.size(), req.coords.size());
  EXPECT_EQ(back.coords[7][0], req.coords[7][0]);
  ASSERT_EQ(back.values.size(), req.values.size());
  EXPECT_EQ(back.values[100], req.values[100]);
}

TEST(ServeProtocol, ReconReplyRoundTrip) {
  ReconReplyWire reply;
  reply.status = Status::kSanitizedPartial;
  reply.n = 32;
  reply.client_tag = 7;
  reply.sanitize_dropped = 3;
  reply.sanitize_repaired = 1;
  reply.message = "three samples dropped";
  reply.image.assign(32 * 32, c64{0.5, -0.25});
  const auto bytes = encode_recon_reply(reply);
  const auto back = decode_recon_reply(bytes.data(), bytes.size());
  EXPECT_EQ(back.status, reply.status);
  EXPECT_EQ(back.n, reply.n);
  EXPECT_EQ(back.client_tag, reply.client_tag);
  EXPECT_EQ(back.sanitize_dropped, reply.sanitize_dropped);
  EXPECT_EQ(back.sanitize_repaired, reply.sanitize_repaired);
  EXPECT_EQ(back.message, reply.message);
  ASSERT_EQ(back.image.size(), reply.image.size());
  EXPECT_EQ(back.image[17], reply.image[17]);
}

TEST(ServeProtocol, DecodeRejectsMalformedBodies) {
  ReconRequestWire req;
  req.coords = traj(16);
  req.values.assign(16, c64{1.0, 0.0});
  auto bytes = encode_recon_request(req);

  // Truncated body.
  EXPECT_THROW(decode_recon_request(bytes.data(), bytes.size() - 9),
               ProtocolError);
  // Trailing garbage.
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_THROW(decode_recon_request(extended.data(), extended.size()),
               ProtocolError);
  // Wrong version.
  auto bad_version = bytes;
  bad_version[0] = 0xFF;
  EXPECT_THROW(decode_recon_request(bad_version.data(), bad_version.size()),
               ProtocolError);
  // Arbitrary junk.
  const std::uint8_t junk[] = {1, 2, 3};
  EXPECT_THROW(decode_recon_request(junk, sizeof junk), ProtocolError);
}

TEST(ServeProtocol, CountMismatchRejectedBeforePayloadAllocation) {
  // A tiny body advertising 2^27 samples must be refused by the preflight
  // byte-count check — not allocate gigabytes and throw on the first read.
  std::vector<std::uint8_t> body;
  const auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    body.insert(body.end(), b, b + n);
  };
  const auto u32 = [&](std::uint32_t v) { put(&v, sizeof v); };
  const auto u64 = [&](std::uint64_t v) { put(&v, sizeof v); };
  const auto f64 = [&](double v) { put(&v, sizeof v); };

  u32(kProtocolVersion);
  u32(3);    // engine
  u32(64);   // n
  u32(0);    // iters
  u32(1);    // coils
  u32(0);    // sanitize
  u32(6);    // kernel_width
  u32(0);    // pad
  f64(2.0);  // sigma
  u64(0);    // deadline_ms
  u64(0);    // client_tag
  u64(1ull << 27);  // m: claims 4 GiB of payload...
  f64(0.25);        // ...but 8 bytes follow
  EXPECT_THROW(decode_recon_request(body.data(), body.size()), ProtocolError);

  // Same guard on the reply path.
  body.clear();
  u32(0);   // status
  u32(64);  // n
  u64(0);   // client_tag
  u64(0);   // sanitize_dropped
  u64(0);   // sanitize_repaired
  u32(0);   // msg_len
  u64(1ull << 27);  // pixel_count: claims 4 GiB of image...
  f64(1.0);         // ...but 8 bytes follow
  EXPECT_THROW(decode_recon_reply(body.data(), body.size()), ProtocolError);
}

TEST(ServeProtocol, JobFromWireValidatesEnums) {
  ReconRequestWire req;
  req.coords = traj(16);
  req.values.assign(16, c64{1.0, 0.0});
  req.engine = 99;
  EXPECT_THROW(job_from_wire(req), ProtocolError);
  req.engine = 3;
  req.sanitize = 99;
  EXPECT_THROW(job_from_wire(req), ProtocolError);
  req.sanitize = 0;
  req.sigma = 0.5;
  EXPECT_THROW(job_from_wire(req), ProtocolError);
  req.sigma = 2.0;
  const ReconJob job = job_from_wire(req);
  EXPECT_EQ(job.n, 128);
  EXPECT_FALSE(job.deadline.bounded());
}

// Every body type, encoded from one fixed message with non-trivial fields
// (2 coils where samples travel), plus the FNV-1a and length of the bytes
// it must encode to. The goldens pin the wire format: a codec change that
// moves one byte fails GoldenBodiesAreByteStable.
struct WireCase {
  const char* name;
  std::vector<std::uint8_t> body;
  std::uint64_t golden_fnv1a;
  std::size_t golden_len;
  bool request;  // leads with a version (else a reply: leads with a status)
  std::function<std::vector<std::uint8_t>(const std::uint8_t*, std::size_t)>
      reencode;  // full decode, then encode again
};

template <class Wire>
std::function<std::vector<std::uint8_t>(const std::uint8_t*, std::size_t)>
reencoder(Wire (*decode)(const std::uint8_t*, std::size_t),
          std::vector<std::uint8_t> (*encode)(const Wire&)) {
  return [=](const std::uint8_t* data, std::size_t len) {
    return encode(decode(data, len));
  };
}

std::vector<Coord<2>> fixed_coords(std::size_t m) {
  std::vector<Coord<2>> c(m);
  for (std::size_t i = 0; i < m; ++i) {
    c[i] = {-0.5 + 0.125 * static_cast<double>(i),
            0.25 - 0.0625 * static_cast<double>(i)};
  }
  return c;
}

std::vector<c64> fixed_values(std::size_t count) {
  std::vector<c64> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = c64(static_cast<double>(i) + 0.5, -0.25 * static_cast<double>(i));
  }
  return v;
}

std::vector<WireCase> wire_cases() {
  ReconRequestWire recon;
  recon.engine = 0x80000003u;  // an unknown code still round-trips
  recon.n = 48;
  recon.iters = 5;
  recon.coils = 2;
  recon.sanitize = 1;
  recon.kernel_width = 4;
  recon.sigma = 1.75;
  recon.deadline_ms = 1234;
  recon.client_tag = 0x0123456789ABCDEFull;
  recon.coords = fixed_coords(5);
  recon.values = fixed_values(10);

  ReconReplyWire recon_reply;
  recon_reply.status = Status::kSanitizedPartial;
  recon_reply.n = 2;
  recon_reply.client_tag = 7;
  recon_reply.sanitize_dropped = 3;
  recon_reply.sanitize_repaired = 1;
  recon_reply.message = "three samples dropped";
  recon_reply.image = fixed_values(4);

  OpenSessionWire open;
  open.engine = 3;
  open.n = 64;
  open.iters = 6;
  open.coils = 2;
  open.kernel_width = 4;
  open.warm_start = 1;
  open.sigma = 1.5;
  open.divergence_guard = 0.75;
  open.frame_deadline_ms = 40;
  open.client_tag = 11;

  SessionReplyWire session_reply;
  session_reply.status = Status::kOk;
  session_reply.session_id = 0x42;
  session_reply.client_tag = 11;
  session_reply.frames = 9;
  session_reply.total_iterations = 37;
  session_reply.message = "closed";

  PushFrameWire push;
  push.coils = 2;
  push.session_id = 0x42;
  push.frame_index = 3;
  push.deadline_ms = 25;
  push.client_tag = 12;
  push.coords = fixed_coords(4);
  push.values = fixed_values(8);

  FrameReplyWire frame_reply;
  frame_reply.status = Status::kTimeout;
  frame_reply.n = 2;
  frame_reply.iterations = 4;
  frame_reply.flags = kFrameWarmFlag | kFramePlanReusedFlag;
  frame_reply.session_id = 0x42;
  frame_reply.frame_index = 3;
  frame_reply.client_tag = 12;
  frame_reply.residual = 0.125;
  frame_reply.message = "late";
  frame_reply.image = fixed_values(4);

  CloseSessionWire close;
  close.session_id = 0x42;
  close.client_tag = 13;

  return {
      {"recon_request", encode_recon_request(recon),
       0xBA808B29C3F3CE3Eull, 304, true,
       reencoder(&decode_recon_request, &encode_recon_request)},
      {"recon_reply", encode_recon_reply(recon_reply),
       0x333B064E4EF76AC2ull, 129, false,
       reencoder(&decode_recon_reply, &encode_recon_reply)},
      {"open_session", encode_open_session(open),
       0x36BBF3F5A84423E5ull, 64, true,
       reencoder(&decode_open_session, &encode_open_session)},
      {"session_reply", encode_session_reply(session_reply),
       0x52F0216A8E47C8B2ull, 50, false,
       reencoder(&decode_session_reply, &encode_session_reply)},
      {"push_frame", encode_push_frame(push),
       0xDD86BA5E50315FFFull, 240, true,
       reencoder(&decode_push_frame, &encode_push_frame)},
      {"frame_reply", encode_frame_reply(frame_reply),
       0xAA3B5FC642EAC6FDull, 128, false,
       reencoder(&decode_frame_reply, &encode_frame_reply)},
      {"close_session", encode_close_session(close),
       0x5392175D64EEEC0Bull, 24, true,
       reencoder(&decode_close_session, &encode_close_session)},
  };
}

std::uint64_t body_hash(const std::vector<std::uint8_t>& body) {
  return fnv1a(body.data(), body.size(), kFnv1aBasis);
}

TEST(ServeProtocol, GoldenBodiesAreByteStable) {
  for (const WireCase& w : wire_cases()) {
    SCOPED_TRACE(w.name);
    EXPECT_EQ(w.body.size(), w.golden_len);
    EXPECT_EQ(body_hash(w.body), w.golden_fnv1a);
    // Decoding and encoding again reproduces the body byte for byte.
    EXPECT_EQ(w.reencode(w.body.data(), w.body.size()), w.body);
  }
}

// The seed of a mutation harness over every body type: each strict prefix
// and the body plus one trailing byte must be refused, never accepted or
// crashed on.
TEST(ServeProtocol, EveryPrefixAndTrailingByteIsRejected) {
  for (const WireCase& w : wire_cases()) {
    SCOPED_TRACE(w.name);
    for (std::size_t len = 0; len < w.body.size(); ++len) {
      EXPECT_THROW(w.reencode(w.body.data(), len), ProtocolError)
          << "prefix of " << len << " bytes";
    }
    auto extended = w.body;
    extended.push_back(0);
    EXPECT_THROW(w.reencode(extended.data(), extended.size()), ProtocolError);
  }
}

TEST(ServeProtocol, BadVersionAndUnknownStatusAreRejected) {
  int requests = 0, replies = 0;
  for (const WireCase& w : wire_cases()) {
    SCOPED_TRACE(w.name);
    auto bad = w.body;
    const std::uint32_t lead =
        w.request ? kProtocolVersion + 1
                  : static_cast<std::uint32_t>(Status::kError) + 1;
    std::memcpy(bad.data(), &lead, sizeof lead);
    EXPECT_THROW(w.reencode(bad.data(), bad.size()), ProtocolError);
    ++(w.request ? requests : replies);
  }
  EXPECT_EQ(requests, 4);
  EXPECT_EQ(replies, 3);
}

template <class Wire>
ReplyHead full_head(Wire (*decode)(const std::uint8_t*, std::size_t),
                    const std::vector<std::uint8_t>& body) {
  Wire reply = decode(body.data(), body.size());
  return {reply.status, std::move(reply.message)};
}

// peek_reply reads status and message without the image; it must accept
// and reject exactly the recon- and session-reply bodies the full decoder
// does. The mutants are the sweep above plus every single-byte flip.
TEST(ServeProtocol, ReplyPeekAgreesWithFullDecode) {
  using FullHead = std::function<ReplyHead(const std::vector<std::uint8_t>&)>;
  const std::map<std::string, std::pair<MsgType, FullHead>> replies = {
      {"recon_reply",
       {MsgType::kReconReply,
        [](const auto& b) { return full_head(&decode_recon_reply, b); }}},
      {"session_reply",
       {MsgType::kSessionReply,
        [](const auto& b) { return full_head(&decode_session_reply, b); }}},
  };
  int covered = 0;
  for (const WireCase& w : wire_cases()) {
    const auto kind = replies.find(w.name);
    if (kind == replies.end()) continue;
    SCOPED_TRACE(w.name);
    ++covered;
    const auto& [type, full] = kind->second;
    std::vector<std::vector<std::uint8_t>> mutants;
    for (std::size_t len = 0; len <= w.body.size(); ++len) {
      mutants.emplace_back(w.body.begin(), w.body.begin() + len);
    }
    mutants.push_back(w.body);
    mutants.back().push_back(0);
    for (std::size_t i = 0; i < w.body.size(); ++i) {
      mutants.push_back(w.body);
      mutants.back()[i] ^= 0xFF;
    }
    int accepted = 0;
    for (const auto& body : mutants) {
      std::optional<ReplyHead> peeked, decoded;
      try {
        peeked = peek_reply(type, body.data(), body.size());
      } catch (const ProtocolError&) {
      }
      try {
        decoded = full(body);
      } catch (const ProtocolError&) {
      }
      ASSERT_EQ(peeked.has_value(), decoded.has_value())
          << "disagree on a " << body.size() << "-byte body";
      if (peeked) {
        ++accepted;
        EXPECT_EQ(peeked->status, decoded->status);
        EXPECT_EQ(peeked->message, decoded->message);
      }
    }
    EXPECT_GT(accepted, 0);  // the unmutated body, at least
  }
  EXPECT_EQ(covered, 2);
}

// ----------------------------------------------------------------- session

TEST(ServeSession, AdjointMatchesDirectPlanBitExact) {
  const std::int64_t n = 32;
  const auto coords = traj();
  ReconJob job = make_job(n, coords);

  core::GridderOptions direct_options = job.options;
  core::NufftPlan<2> plan(n, coords, direct_options);
  const auto expected = plan.adjoint(job.samples.values);

  ServeSession session;
  const ReconOutcome outcome = session.recon(std::move(job));
  ASSERT_EQ(outcome.status, Status::kOk) << outcome.message;
  ASSERT_EQ(outcome.image.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(outcome.image[i], expected[i]) << "pixel " << i;
  }
}

TEST(ServeSession, SameGeometryBurstPlansExactlyOnce) {
  const std::int64_t n = 32;
  const auto coords = traj();
  ServeSession session;

  constexpr int kBurst = 12;
  std::vector<std::future<ReconOutcome>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    ReconJob job = make_job(n, coords);
    job.client_tag = static_cast<std::uint64_t>(i);
    futures.push_back(session.submit(std::move(job)));
  }
  for (auto& f : futures) {
    const ReconOutcome outcome = f.get();
    EXPECT_EQ(outcome.status, Status::kOk) << outcome.message;
    EXPECT_EQ(outcome.image.size(), static_cast<std::size_t>(n * n));
  }
  const EngineCounts c = session.counts();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(c.ok, static_cast<std::uint64_t>(kBurst));
  // The acceptance invariant: one plan build for the whole burst.
  EXPECT_EQ(c.plan_builds, 1u);
  EXPECT_EQ(c.plan_hits, static_cast<std::uint64_t>(c.batches - 1));
}

TEST(ServeSession, AutoEngineBurstTunesOncePlansOnce) {
  const std::int64_t n = 32;
  const auto coords = traj();
  ServeSession session;

  constexpr int kBurst = 12;
  std::vector<std::future<ReconOutcome>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    ReconJob job = make_job(n, coords);
    job.options.kind = core::GridderKind::Auto;
    job.client_tag = static_cast<std::uint64_t>(i);
    futures.push_back(session.submit(std::move(job)));
  }
  for (auto& f : futures) {
    const ReconOutcome outcome = f.get();
    EXPECT_EQ(outcome.status, Status::kOk) << outcome.message;
    EXPECT_EQ(outcome.image.size(), static_cast<std::size_t>(n * n));
  }
  const EngineCounts c = session.counts();
  EXPECT_EQ(c.ok, static_cast<std::uint64_t>(kBurst));
  // The acceptance invariant: the whole same-geometry burst resolved auto
  // exactly once (the pool keys on the ORIGINAL auto options) and built
  // exactly one plan.
  EXPECT_EQ(c.plan_builds, 1u);
  EXPECT_EQ(c.tuned_plans, 1u);

  // A one-shot adjoint resolves to serial: numerically identical to a
  // direct recon with the default engine.
  ReconJob direct = make_job(n, coords);
  core::NufftPlan<2> plan(n, coords, direct.options);
  const auto expected = plan.adjoint(direct.samples.values);
  ReconJob tuned_job = make_job(n, coords);
  tuned_job.options.kind = core::GridderKind::Auto;
  const ReconOutcome outcome = session.recon(std::move(tuned_job));
  ASSERT_EQ(outcome.status, Status::kOk) << outcome.message;
  ASSERT_EQ(outcome.image.size(), expected.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    num += std::norm(outcome.image[i] - expected[i]);
    den += std::norm(expected[i]);
  }
  EXPECT_LE(std::sqrt(num / den), 1e-12);
}

TEST(ServeSession, AutoEngineIterativeRequestMatchesDirectSparse) {
  // CG applies the plan every iteration, so auto resolves it to the
  // sparse matrix.
  const std::int64_t n = 32;
  const auto coords = traj();
  ServeSession session;
  const char* const kSparseCalls = "grid.sparse-matrix.adjoint_calls";
  const std::uint64_t sparse_before = obs::snapshot().counter(kSparseCalls);
  ReconJob job = make_job(n, coords);
  job.options.kind = core::GridderKind::Auto;
  job.iters = 6;
  const ReconOutcome outcome = session.recon(std::move(job));
  ASSERT_EQ(outcome.status, Status::kOk) << outcome.message;
  EXPECT_EQ(session.counts().tuned_plans, 1u);
  if (obs::kEnabled) {
    EXPECT_GT(obs::snapshot().counter(kSparseCalls), sparse_before);
  }

  ReconJob direct = make_job(n, coords);
  direct.options.kind = core::GridderKind::Sparse;
  core::NufftPlan<2> plan(n, coords, direct.options);
  const auto expected = core::iterative_recon<2>(
      plan, direct.samples.values, 6, ServeConfig{}.cg_tolerance);
  ASSERT_EQ(outcome.image.size(), expected.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    num += std::norm(outcome.image[i] - expected[i]);
    den += std::norm(expected[i]);
  }
  EXPECT_LE(std::sqrt(num / den), 1e-12);
}

TEST(ServeSession, AutoPlanPoolKeysOnReuseClass) {
  // A one-shot auto adjoint pools a serial plan; a CG auto request
  // of the same geometry must not ride it but build its own sparse plan.
  const std::int64_t n = 32;
  const auto coords = traj();
  ServeSession session;
  ReconJob one_shot = make_job(n, coords);
  one_shot.options.kind = core::GridderKind::Auto;
  ASSERT_EQ(session.recon(std::move(one_shot)).status, Status::kOk);

  const char* const kSparseCalls = "grid.sparse-matrix.adjoint_calls";
  const std::uint64_t sparse_before = obs::snapshot().counter(kSparseCalls);
  ReconJob cg = make_job(n, coords);
  cg.options.kind = core::GridderKind::Auto;
  cg.iters = 4;
  ASSERT_EQ(session.recon(std::move(cg)).status, Status::kOk);
  EXPECT_EQ(session.counts().plan_builds, 2u);
  EXPECT_EQ(session.counts().tuned_plans, 2u);
  if (obs::kEnabled) {
    EXPECT_GT(obs::snapshot().counter(kSparseCalls), sparse_before);
  }

  // A named engine keeps one plan for adjoint and CG requests alike.
  ReconJob named_adjoint = make_job(n, coords);
  ASSERT_EQ(session.recon(std::move(named_adjoint)).status, Status::kOk);
  ReconJob named_cg = make_job(n, coords);
  named_cg.iters = 4;
  ASSERT_EQ(session.recon(std::move(named_cg)).status, Status::kOk);
  EXPECT_EQ(session.counts().plan_builds, 3u);
}

TEST(ServeSession, AutoOneShotAfterCgStaysOnSerial) {
  const std::int64_t n = 32;
  const auto coords = traj();
  ServeSession session;
  ReconJob cg = make_job(n, coords);
  cg.options.kind = core::GridderKind::Auto;
  cg.iters = 4;
  ASSERT_EQ(session.recon(std::move(cg)).status, Status::kOk);

  const char* const kSerialCalls = "grid.serial.adjoint_calls";
  const char* const kSparseCalls = "grid.sparse-matrix.adjoint_calls";
  const std::uint64_t serial_before = obs::snapshot().counter(kSerialCalls);
  const std::uint64_t sparse_before = obs::snapshot().counter(kSparseCalls);
  ReconJob one_shot = make_job(n, coords);
  one_shot.options.kind = core::GridderKind::Auto;
  ASSERT_EQ(session.recon(std::move(one_shot)).status, Status::kOk);
  EXPECT_EQ(session.counts().plan_builds, 2u);
  if (obs::kEnabled) {
    EXPECT_EQ(obs::snapshot().counter(kSerialCalls) - serial_before, 1u);
    EXPECT_EQ(obs::snapshot().counter(kSparseCalls), sparse_before);
  }
}

TEST(ServeSession, PlanBuildsEqualsDistinctGeometries) {
  const auto coords = traj();
  ServeSession session;
  std::vector<std::future<ReconOutcome>> futures;
  const std::int64_t sizes[] = {24, 32, 48};
  for (int round = 0; round < 3; ++round) {
    for (const std::int64_t n : sizes) {
      futures.push_back(session.submit(make_job(n, coords)));
    }
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_EQ(session.counts().plan_builds, 3u);
}

TEST(ServeSession, QueueFullRejectsWithBackpressureStatus) {
  ServeConfig config;
  config.max_queue = 0;  // every admission sees a full queue
  ServeSession session(config);
  const ReconOutcome outcome = session.recon(make_job(32, traj(256)));
  EXPECT_EQ(outcome.status, Status::kRejected);
  EXPECT_NE(outcome.message.find("queue full"), std::string::npos)
      << outcome.message;
  EXPECT_EQ(session.counts().rejected, 1u);
}

TEST(ServeSession, LimitViolationsAreRejected) {
  ServeConfig config;
  config.max_n = 64;
  config.max_coils = 4;
  ServeSession session(config);

  ReconJob too_big = make_job(128, traj(256));
  EXPECT_EQ(session.recon(std::move(too_big)).status, Status::kRejected);

  ReconJob empty;
  empty.n = 32;
  EXPECT_EQ(session.recon(std::move(empty)).status, Status::kRejected);

  ReconJob bad_coils = make_job(32, traj(256));
  bad_coils.coils = 8;
  EXPECT_EQ(session.recon(std::move(bad_coils)).status, Status::kRejected);

  EXPECT_EQ(session.counts().rejected, 3u);
  EXPECT_EQ(session.counts().completed(), 3u);
}

TEST(ServeSession, ExpiredDeadlineIsTimeoutAtAdmission) {
  ServeSession session;
  ReconJob job = make_job(32, traj(256));
  job.deadline = Deadline::already_expired();
  const ReconOutcome outcome = session.recon(std::move(job));
  EXPECT_EQ(outcome.status, Status::kTimeout);
  EXPECT_EQ(session.counts().timeout, 1u);
}

TEST(ServeSession, DrainCompletesInflightThenRejectsNewWork) {
  const auto coords = traj();
  ServeSession session;
  std::vector<std::future<ReconOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(session.submit(make_job(32, coords)));
  }
  session.drain();
  // Every pre-drain job completed successfully (none dropped, none hung).
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  const EngineCounts after = session.counts();
  EXPECT_TRUE(after.draining);
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(after.inflight, 0u);
  EXPECT_EQ(after.ok, 6u);
  // Post-drain submissions are rejected, not queued.
  EXPECT_EQ(session.recon(make_job(32, coords)).status, Status::kRejected);
}

TEST(ServeSession, DropPolicyReportsSanitizedPartial) {
  const std::int64_t n = 32;
  // Random trajectory: no duplicate coordinates, so Drop removes exactly
  // the two defects injected below (radial spokes repeat the center point).
  auto coords = trajectory::random_2d(512, 7);
  ReconJob job = make_job(n, coords);
  job.options.sanitize = robustness::SanitizePolicy::Drop;
  job.samples.coords[10][0] = std::nan("");
  job.samples.coords[20][1] = 7.5;  // out of range
  ServeSession session;
  const ReconOutcome outcome = session.recon(std::move(job));
  ASSERT_EQ(outcome.status, Status::kSanitizedPartial) << outcome.message;
  EXPECT_EQ(outcome.sanitize_dropped, 2u);
  EXPECT_EQ(outcome.image.size(), static_cast<std::size_t>(n * n));
  EXPECT_EQ(session.counts().sanitized_partial, 1u);
}

TEST(ServeSession, StrictPolicyOnDefectiveInputIsError) {
  ReconJob job = make_job(32, traj(256));
  job.options.sanitize = robustness::SanitizePolicy::Strict;
  job.samples.coords[3][0] = std::nan("");
  ServeSession session;
  const ReconOutcome outcome = session.recon(std::move(job));
  EXPECT_EQ(outcome.status, Status::kError);
  EXPECT_EQ(session.counts().error, 1u);
}

TEST(ServeSession, MultiCoilJobRunsCgSense) {
  const std::int64_t n = 24;
  const int coils = 2;
  auto coords = traj(800);
  core::NufftPlan<2> plan(n, coords, core::GridderOptions{});
  const auto maps = core::make_birdcage_maps(n, coils);
  const auto image = trajectory::rasterize(trajectory::shepp_logan(),
                                           static_cast<int>(n));
  std::vector<c64> cimage(image.size());
  for (std::size_t i = 0; i < image.size(); ++i) cimage[i] = image[i];
  const auto y = core::simulate_multicoil(plan, maps, cimage);

  ReconJob job;
  job.n = n;
  job.coils = coils;
  job.iters = 3;
  job.samples.coords = coords;
  job.samples.values = y;
  ServeSession session;
  const ReconOutcome outcome = session.recon(std::move(job));
  ASSERT_EQ(outcome.status, Status::kOk) << outcome.message;
  EXPECT_EQ(outcome.image.size(), static_cast<std::size_t>(n * n));
}

TEST(ServeSession, MultiCoilItersZeroRunsDocumentedDefaultDepth) {
  // The wire contract: iters == 0 with coils > 1 selects the configured
  // default CG-SENSE depth, and the reply message must say so.
  const std::int64_t n = 24;
  ReconJob job;
  job.n = n;
  job.coils = 2;
  job.iters = 0;
  job.samples.coords = traj(600);
  const auto values = phantom_data(job.samples.coords, static_cast<int>(n));
  job.samples.values = values;
  job.samples.values.insert(job.samples.values.end(), values.begin(),
                            values.end());
  ServeSession session;
  const ReconOutcome outcome = session.recon(std::move(job));
  ASSERT_EQ(outcome.status, Status::kOk) << outcome.message;
  EXPECT_NE(outcome.message.find("iters=10 (default)"), std::string::npos)
      << outcome.message;
  EXPECT_EQ(outcome.image.size(), static_cast<std::size_t>(n * n));
}

TEST(ServeSession, StatszJsonCarriesCountsAndCounters) {
  ServeSession session;
  EXPECT_EQ(session.recon(make_job(32, traj(256))).status, Status::kOk);
  const std::string json = session.statsz_json();
  EXPECT_NE(json.find("\"submitted\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"plan_builds\": 1"), std::string::npos) << json;
}

// ------------------------------------------------------------ socket server

// The acceptance scenario: 32 concurrent clients — 30 normal requests over
// three geometries, one malformed payload, one oversized frame — all
// answered, per-status totals accounting for every request, plan builds
// equal to distinct geometries, graceful drain at the end.
TEST(ServeServer, ConcurrentMixedClientsAllAccountedFor) {
  ServeConfig config;
  config.socket_path = unique_socket_path("mixed");
  config.max_request_bytes = 4u << 20;
  ReconServer server(config);
  server.start();

  constexpr int kNormal = 30;
  const std::int64_t sizes[] = {24, 32, 48};
  const auto coords = traj(1500);
  // Pre-encode one request per geometry (encode is deterministic; clients
  // only differ in client_tag, patched per thread below).
  std::vector<ReconRequestWire> protos;
  for (const std::int64_t n : sizes) {
    ReconRequestWire req;
    req.n = static_cast<std::uint32_t>(n);
    req.kernel_width = 4;
    req.coords = coords;
    req.values = phantom_data(coords, static_cast<int>(n));
    protos.push_back(std::move(req));
  }

  std::atomic<int> ok{0}, error{0}, rejected{0}, other{0};
  std::vector<std::thread> clients;
  clients.reserve(kNormal + 2);
  for (int i = 0; i < kNormal; ++i) {
    clients.emplace_back([&, i] {
      try {
        ServeClient client(config.socket_path);
        ReconRequestWire req = protos[static_cast<std::size_t>(i % 3)];
        req.client_tag = static_cast<std::uint64_t>(i);
        const ReconReplyWire reply = client.recon(req);
        if (reply.status == Status::kOk &&
            reply.client_tag == static_cast<std::uint64_t>(i) &&
            reply.image.size() ==
                static_cast<std::size_t>(reply.n) * reply.n) {
          ok.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      } catch (const std::exception&) {
        other.fetch_add(1);
      }
    });
  }
  // One malformed payload: the recovering parse answers ERROR.
  clients.emplace_back([&] {
    try {
      ServeClient client(config.socket_path);
      client.send_raw(MsgType::kRecon, {0xDE, 0xAD, 0xBE, 0xEF});
      const ReconReplyWire reply = client.recv_recon_reply();
      (reply.status == Status::kError ? error : other).fetch_add(1);
    } catch (const std::exception&) {
      other.fetch_add(1);
    }
  });
  // One oversized frame: rejected before the body is read.
  clients.emplace_back([&] {
    try {
      ServeClient client(config.socket_path);
      client.send_raw_header(static_cast<std::uint32_t>(MsgType::kRecon),
                             config.max_request_bytes + 1);
      const ReconReplyWire reply = client.recv_recon_reply();
      (reply.status == Status::kRejected ? rejected : other).fetch_add(1);
    } catch (const std::exception&) {
      other.fetch_add(1);
    }
  });
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok.load(), kNormal);
  EXPECT_EQ(error.load(), 1);
  EXPECT_EQ(rejected.load(), 1);
  EXPECT_EQ(other.load(), 0);

  // Graceful drain; afterwards the per-status totals account for every
  // request the server saw — none hung, none dropped.
  server.stop();
  const EngineCounts c = server.engine().counts();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kNormal + 2));
  EXPECT_EQ(c.completed(), c.submitted);
  EXPECT_EQ(c.ok, static_cast<std::uint64_t>(kNormal));
  EXPECT_EQ(c.error, 1u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.timeout, 0u);
  EXPECT_EQ(c.queue_depth, 0u);
  EXPECT_EQ(c.inflight, 0u);
  // Plan-cache misses == distinct geometries.
  EXPECT_EQ(c.plan_builds, 3u);
}

TEST(ServeServer, MalformedBodyKeepsConnectionUsable) {
  ServeConfig config;
  config.socket_path = unique_socket_path("recover");
  ReconServer server(config);
  server.start();

  ServeClient client(config.socket_path);
  client.send_raw(MsgType::kRecon, {1, 2, 3});
  EXPECT_EQ(client.recv_recon_reply().status, Status::kError);

  // Same connection, now a valid request.
  ReconRequestWire req;
  req.n = 32;
  req.kernel_width = 4;
  req.coords = traj(512);
  req.values = phantom_data(req.coords, 32);
  const ReconReplyWire reply = client.recon(req);
  EXPECT_EQ(reply.status, Status::kOk) << reply.message;
  EXPECT_EQ(reply.image.size(), 32u * 32u);
  server.stop();
}

TEST(ServeProtocol, BadMagicIsReportedInHex) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const FrameHeader header{0xdeadbeefu,
                           static_cast<std::uint32_t>(MsgType::kRecon), 0};
  ASSERT_EQ(::write(fds[0], &header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  Frame frame;
  try {
    recv_frame(fds[1], frame, 1024, 1000);
    ADD_FAILURE() << "a bad magic must throw";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("0xdeadbeef"), std::string::npos)
        << e.what();
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// The engine field decodes the same way on every request type: a code
// above auto (the retired SIMD flag bit 0x80000000 included) is refused
// with one reason. A recon request reports it as a protocol error;
// open-session answers it bare. The worker keeps serving afterwards.
TEST(ServeServer, BadEngineFieldIsRefusedAlikeOnEveryRequestType) {
  ServeConfig config;
  config.socket_path = unique_socket_path("engine_field");
  ReconServer server(config);
  server.start();
  {
    ServeClient client(config.socket_path);
    const std::uint32_t cases[] = {
        99u,
        3u | 0x80000000u,
        static_cast<std::uint32_t>(core::GridderKind::Sparse) | 0x80000000u,
    };
    for (const std::uint32_t engine : cases) {
      const std::string reason =
          "unknown engine code " + std::to_string(engine);
      SCOPED_TRACE(reason);
      try {
        decode_engine(engine);
        ADD_FAILURE() << "must throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), reason);
      }

      ReconRequestWire recon;
      recon.engine = engine;
      recon.n = 32;
      recon.kernel_width = 4;
      recon.coords = traj(64);
      recon.values = phantom_data(recon.coords, 32);
      const ReconReplyWire recon_reply = client.recon(recon);
      EXPECT_EQ(recon_reply.status, Status::kError);
      EXPECT_EQ(recon_reply.message, "protocol: " + reason);

      OpenSessionWire open;
      open.engine = engine;
      open.n = 32;
      const SessionReplyWire open_reply = client.open_session(open);
      EXPECT_EQ(open_reply.status, Status::kError);
      EXPECT_EQ(open_reply.message, reason);
    }
    ReconRequestWire valid;
    valid.n = 32;
    valid.kernel_width = 4;
    valid.coords = traj(64);
    valid.values = phantom_data(valid.coords, 32);
    const ReconReplyWire served = client.recon(valid);
    EXPECT_EQ(served.status, Status::kOk) << served.message;
    EXPECT_EQ(served.image.size(), 32u * 32u);
  }
  server.stop();
}

TEST(ServeServer, StatsRequestReturnsJsonSnapshot) {
  ServeConfig config;
  config.socket_path = unique_socket_path("stats");
  ReconServer server(config);
  server.start();
  {
    ServeClient client(config.socket_path);
    ReconRequestWire req;
    req.n = 32;
    req.kernel_width = 4;
    req.coords = traj(512);
    req.values = phantom_data(req.coords, 32);
    EXPECT_EQ(client.recon(req).status, Status::kOk);
    const std::string json = client.statsz();
    EXPECT_NE(json.find("\"ok\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  }
  server.stop();
}

int open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(ServeServer, ConnectionsAreReapedWhileRunning) {
  ServeConfig config;
  config.socket_path = unique_socket_path("reap");
  ReconServer server(config);
  server.start();

  {  // Warm-up connection: first-use allocations settle before baselining.
    ServeClient warm(config.socket_path);
    warm.statsz();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const int baseline = open_fd_count();
  ASSERT_GT(baseline, 0);

  // The jigsaw_client pattern: one connection per request, then EOF.
  constexpr int kConnections = 40;
  for (int i = 0; i < kConnections; ++i) {
    ServeClient client(config.socket_path);
    client.statsz();
  }

  // Readers retire themselves on client EOF and the accept loop joins
  // them; poll until the fd count is back near the baseline. Without
  // reaping the server held one fd per past connection until stop() and
  // this never converged.
  int now = open_fd_count();
  for (int spin = 0; spin < 100 && now > baseline + 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    now = open_fd_count();
  }
  EXPECT_LE(now, baseline + 2);
  server.stop();
}

TEST(ServeServer, StalledReplyReaderCannotBlockDrain) {
  ServeConfig config;
  config.socket_path = unique_socket_path("stall");
  config.reply_write_timeout_ms = 200;
  ReconServer server(config);
  server.start();
  {
    // A client that submits a request with a ~1 MiB reply and never reads
    // it: the socket buffers fill and the dispatcher's reply write must
    // time out instead of stalling the drain below forever.
    ServeClient client(config.socket_path);
    ReconRequestWire req;
    req.n = 256;
    req.kernel_width = 4;
    req.coords = traj(512);
    req.values = phantom_data(req.coords, 256);
    client.send_raw(MsgType::kRecon, encode_recon_request(req));

    // The job's status is counted before the reply write, so waiting for
    // ok == 1 guarantees the write is the only thing still outstanding.
    for (int spin = 0; spin < 1000 && server.engine().counts().ok < 1;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(server.engine().counts().ok, 1u);
    server.stop();  // hangs here without the bounded reply write
  }
  const EngineCounts c = server.engine().counts();
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.completed(), c.submitted);
}

TEST(ServeServer, DeadlineExpiredRequestAnsweredTimeout) {
  ServeConfig config;
  config.socket_path = unique_socket_path("deadline");
  ReconServer server(config);
  server.start();
  {
    ServeClient client(config.socket_path);
    ReconRequestWire req;
    req.n = 32;
    req.kernel_width = 4;
    req.deadline_ms = 1;  // will be long gone by dispatch
    req.coords = traj(512);
    req.values = phantom_data(req.coords, 32);
    // The deadline may expire at admission or in the queue; either way the
    // reply must be TIMEOUT or (if the machine was fast) OK — never hang.
    const ReconReplyWire reply = client.recon(req);
    EXPECT_TRUE(reply.status == Status::kTimeout ||
                reply.status == Status::kOk)
        << to_string(reply.status);
  }
  server.stop();
  const EngineCounts c = server.engine().counts();
  EXPECT_EQ(c.completed(), c.submitted);
}

}  // namespace
}  // namespace jigsaw::serve
