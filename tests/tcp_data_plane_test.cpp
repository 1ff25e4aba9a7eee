/// Tests for the PR-5 TCP data-plane overhaul: crypto::HmacKey midstate
/// equivalence with one-shot HMAC, the one-serialization broadcast framing
/// invariant (shared body + per-link tag == legacy whole-frame encoding,
/// byte for byte), FrameParser buffer reuse across the lazy-compaction
/// boundary and under many-small-frames bursts, authenticated-link tamper
/// rejection, and cross-substrate equivalence (TCP honest bytes and outputs
/// against the simulator's framed_size accounting) for rbc / dolev / delphi.

#include <gtest/gtest.h>

#include <poll.h>

#include <string>

#include "net/message.hpp"
#include "net/wakeup.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "tests/test_util.hpp"
#include "transport/frame.hpp"
#include "transport/tcp.hpp"

namespace delphi::transport {
namespace {

using scenario::ScenarioSpec;
using scenario::SimRuntime;
using scenario::Substrate;
using scenario::TcpRuntime;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// ------------------------------------------------------- HmacKey midstates

TEST(HmacKey, TagMatchesOneShotHmacAcrossKeyAndDataSizes) {
  // The midstate path must be indistinguishable from RFC 2104 HMAC for
  // every key length (including > block size, which hashes the key first)
  // and every data length straddling block boundaries.
  for (const std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 131u}) {
    const std::vector<std::uint8_t> key(key_len, 0xA7);
    const crypto::HmacKey hk{std::span<const std::uint8_t>(key)};
    for (const std::size_t data_len : {0u, 1u, 31u, 55u, 64u, 65u, 1000u}) {
      std::vector<std::uint8_t> data(data_len);
      for (std::size_t i = 0; i < data_len; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 7 + key_len);
      }
      const auto expected = crypto::hmac_sha256(key, data);
      EXPECT_EQ(crypto::to_hex(hk.tag(data)), crypto::to_hex(expected))
          << "key_len=" << key_len << " data_len=" << data_len;
    }
  }
}

TEST(HmacKey, TwoSpanTagEqualsConcatenatedTag) {
  crypto::Key key{};
  key.fill(0x3C);
  const crypto::HmacKey hk(key);
  const auto a = bytes_of("channel-uvarint");
  const auto b = bytes_of("payload bytes of some protocol message");
  auto concat = a;
  concat.insert(concat.end(), b.begin(), b.end());
  EXPECT_EQ(crypto::to_hex(hk.tag(a, b)), crypto::to_hex(hk.tag(concat)));
}

TEST(HmacKey, ReusableAcrossTags) {
  // One key schedule, many tags: later tags must not be polluted by
  // earlier ones (the midstates are copied, never consumed).
  crypto::Key key{};
  key.fill(0x11);
  const crypto::HmacKey hk(key);
  const auto d1 = bytes_of("first");
  const auto d2 = bytes_of("second");
  const auto t1 = hk.tag(d1);
  const auto t2 = hk.tag(d2);
  EXPECT_EQ(crypto::to_hex(hk.tag(d1)), crypto::to_hex(t1));
  EXPECT_EQ(crypto::to_hex(hk.tag(d2)), crypto::to_hex(t2));
  EXPECT_NE(crypto::to_hex(t1), crypto::to_hex(t2));
}

// ------------------------------------- one-serialization broadcast framing

TEST(SharedFrameBody, BodyPlusTagEqualsLegacyFrame) {
  // The broadcast invariant: shared body + per-link tag must be byte-for-
  // byte what the legacy per-destination encoder produced, for every link.
  const auto payload = bytes_of("delphi bundle bytes");
  const auto body = encode_frame_body(42, payload, /*authenticated=*/true);
  crypto::KeyStore keys(/*master=*/5, /*n=*/4);
  for (NodeId j = 1; j < 4; ++j) {
    const crypto::HmacKey link(keys.channel_key(0, j));
    auto wire = *body;
    const auto tag = frame_tag(link, *body);
    wire.insert(wire.end(), tag.begin(), tag.end());
    EXPECT_EQ(wire, encode_frame(42, payload, &keys.channel_key(0, j)))
        << "link 0-" << j;
    EXPECT_EQ(wire.size(), net::framed_size(payload.size(), 42, true));
    EXPECT_EQ(frame_wire_size(*body, true), wire.size());
  }
}

TEST(SharedFrameBody, UnauthenticatedBodyIsTheWholeFrame) {
  const auto payload = bytes_of("xyz");
  const auto body = encode_frame_body(7, payload, /*authenticated=*/false);
  EXPECT_EQ(*body, encode_frame(7, payload, nullptr));
  EXPECT_EQ(body->size(), net::framed_size(payload.size(), 7, false));
  EXPECT_EQ(frame_wire_size(*body, false), body->size());
}

TEST(SharedFrameBody, MessageSerializingOverloadMatchesSpanOverload) {
  /// Minimal message body writing a fixed byte pattern.
  class Blob final : public net::MessageBody {
   public:
    std::size_t wire_size() const override { return 5; }
    void serialize(ByteWriter& w) const override {
      for (std::uint8_t b : {1, 2, 3, 4, 5}) w.u8(b);
    }
    std::string debug() const override { return "blob"; }
  };
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(*encode_frame_body(9, Blob(), true),
            *encode_frame_body(9, payload, true));
}

// ------------------------------------------------- parser buffer mechanics

TEST(FrameParser, LazyCompactionBoundaryExactHalf) {
  // Arrange pos_ == buf_.size()/2 exactly when the next feed arrives: frame
  // A consumed (pos_ == |A|) with |B|/2 unread bytes buffered such that
  // |A| == (|A| + |B|/2) / 2. With |A| == 100 and |B| == 400: feed A plus
  // 100 bytes of B (buf 200, pos 100 after A pops) — the second feed
  // triggers compaction at the exact boundary and B must still parse.
  const auto key_a = crypto::Key{};  // zero key
  const crypto::HmacKey hk(key_a);

  // |A| = 4 + 1 + 63 + 32 = 100 bytes; |B| = 4 + 1 + 363 + 32 = 400 bytes.
  const std::vector<std::uint8_t> pa(63, 0xAA);
  const std::vector<std::uint8_t> pb(363, 0xBB);
  const auto fa = encode_frame(1, pa, &hk);
  const auto fb = encode_frame(2, pb, &hk);
  ASSERT_EQ(fa.size(), 100u);
  ASSERT_EQ(fb.size(), 400u);

  FrameParser parser(&hk);
  std::vector<std::uint8_t> first(fa);
  first.insert(first.end(), fb.begin(), fb.begin() + 100);
  parser.feed(first);
  auto a = parser.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->payload, pa);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 100u);

  // pos_ == 100 == buf_.size()/2: this feed compacts, then appends.
  parser.feed(std::span<const std::uint8_t>(fb.data() + 100, 300));
  auto b = parser.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->channel, 2u);
  EXPECT_EQ(b->payload, pb);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, ManySmallFramesInOneRead) {
  // A burst of small frames arriving in a single read() must all parse,
  // reusing one buffer (no quadratic compaction, no lost boundaries).
  const crypto::Key key{};
  const crypto::HmacKey hk(key);
  constexpr std::size_t kFrames = 500;
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::vector<std::uint8_t> payload(
        1 + i % 17, static_cast<std::uint8_t>(i));
    const auto f = encode_frame(static_cast<std::uint32_t>(i % 5), payload,
                                &hk);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameParser parser(&hk);
  parser.feed(stream);
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto v = parser.next_view();
    ASSERT_TRUE(v.has_value()) << "frame " << i;
    EXPECT_EQ(v->channel, i % 5);
    ASSERT_EQ(v->payload.size(), 1 + i % 17);
    EXPECT_EQ(v->payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_FALSE(parser.next_view().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, ViewAndCopyAgree) {
  const crypto::Key key{};
  const crypto::HmacKey hk(key);
  const auto payload = bytes_of("view-vs-copy");
  const auto frame = encode_frame(3, payload, &hk);

  FrameParser by_view(&hk);
  by_view.feed(frame);
  const auto v = by_view.next_view();
  ASSERT_TRUE(v.has_value());

  FrameParser by_copy(&hk);
  by_copy.feed(frame);
  const auto c = by_copy.next();
  ASSERT_TRUE(c.has_value());

  EXPECT_EQ(v->channel, c->channel);
  EXPECT_EQ(std::vector<std::uint8_t>(v->payload.begin(), v->payload.end()),
            c->payload);
}

// ------------------------------------------------------- tamper rejection

TEST(Tamper, FlippedPayloadByteRaisesProtocolViolation) {
  const crypto::Key key{};
  const crypto::HmacKey hk(key);
  const std::vector<std::uint8_t> payload(40, 0x55);
  auto frame = encode_frame(1, payload, &hk);
  frame[10] ^= 0x01;  // payload region
  FrameParser parser(&hk);
  parser.feed(frame);
  EXPECT_THROW(parser.next_view(), ProtocolViolation);
}

TEST(Tamper, FlippedTagByteRaisesProtocolViolation) {
  const crypto::Key key{};
  const crypto::HmacKey hk(key);
  const std::vector<std::uint8_t> payload(40, 0x55);
  auto frame = encode_frame(1, payload, &hk);
  frame[frame.size() - 1] ^= 0x80;  // inside the MAC tag
  FrameParser parser(&hk);
  parser.feed(frame);
  EXPECT_THROW(parser.next_view(), ProtocolViolation);
}

// -------------------------------------------------- cross-substrate parity

TEST(CrossSubstrate, RbcBytesAndOutputsUnchangedByOverhaul) {
  // RBC traffic is schedule-independent, so the overhauled TCP data plane
  // must report exactly the simulator's framed_size accounting — any drift
  // in the broadcast framing contract shows up here as a byte delta.
  ScenarioSpec spec;
  spec.protocol = "rbc";
  spec.n = 5;
  spec.seed = 23;
  spec.inputs = {1.5, 2.5, 3.5, 4.5, 5.5};

  spec.substrate = Substrate::kSim;
  const auto sim_rep = SimRuntime().run(spec);
  spec.substrate = Substrate::kTcp;
  const auto tcp_rep = TcpRuntime().run(spec);

  ASSERT_TRUE(sim_rep.ok);
  ASSERT_TRUE(tcp_rep.ok);
  EXPECT_EQ(sim_rep.outputs, tcp_rep.outputs);
  EXPECT_EQ(sim_rep.honest_bytes, tcp_rep.honest_bytes);
  EXPECT_EQ(sim_rep.honest_msgs, tcp_rep.honest_msgs);
}

TEST(CrossSubstrate, DolevBytesMatchWithAndWithoutAuth) {
  // Both auth modes: the length-prefix/tag accounting of the shared-body
  // encoding must agree with framed_size in each.
  for (const double auth : {1.0, 0.0}) {
    SCOPED_TRACE(auth);
    ScenarioSpec spec;
    spec.protocol = "dolev";
    spec.n = 6;
    spec.seed = 9;
    spec.params["rounds"] = 5;
    spec.params["auth"] = auth;
    spec.inputs = std::vector<double>(6, 17.0);

    spec.substrate = Substrate::kSim;
    const auto sim_rep = SimRuntime().run(spec);
    spec.substrate = Substrate::kTcp;
    const auto tcp_rep = TcpRuntime().run(spec);

    ASSERT_TRUE(sim_rep.ok);
    ASSERT_TRUE(tcp_rep.ok);
    EXPECT_EQ(sim_rep.outputs, tcp_rep.outputs);
    EXPECT_EQ(sim_rep.honest_bytes, tcp_rep.honest_bytes);
  }
}

TEST(CrossSubstrate, DelphiOverTcpStillAgrees) {
  // Delphi's traffic is schedule-dependent (no exact byte parity), but the
  // overhauled data plane must still carry it to eps-agreement.
  ScenarioSpec spec;
  spec.protocol = "delphi";
  spec.substrate = Substrate::kTcp;
  spec.n = 5;
  spec.seed = 3;
  spec.center = 500.0;
  spec.delta = 4.0;
  spec.params["rho0"] = 1.0;
  spec.params["eps"] = 1.0;
  spec.params["delta-max"] = 32.0;
  spec.params["space-min"] = 0.0;
  spec.params["space-max"] = 1000.0;

  const auto rep = TcpRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.outputs.size(), 5u);
  EXPECT_LE(test::spread(rep.outputs), 1.0 + 1e-9);
  EXPECT_GT(rep.honest_bytes, 0u);
  EXPECT_GT(rep.honest_msgs, 0u);
}

TEST(CrossSubstrate, NodelayKnobAcceptedOnTcp) {
  // `nodelay` is a universal substrate param: spec text round-trips and the
  // TCP runtime honours it without a validation error.
  ScenarioSpec spec;
  spec.protocol = "dolev";
  spec.substrate = Substrate::kTcp;
  spec.n = 4;
  spec.params["rounds"] = 3;
  spec.params["nodelay"] = 0.0;
  const auto round_trip = ScenarioSpec::from_text(spec.to_text());
  EXPECT_EQ(round_trip, spec);
  const auto rep = TcpRuntime().run(spec);
  EXPECT_TRUE(rep.ok);
}

// ------------------------------------------------------- wakeup primitive

TEST(WakeupFd, SignalMakesFdReadableAndDrainResets) {
  net::WakeupFd w;
  // Coalesced signals: readable once signaled, clean after drain.
  w.signal();
  w.signal();
  pollfd pfd{w.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 0), 1);
  EXPECT_TRUE(pfd.revents & POLLIN);
  w.drain();
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 0), 0);
}

}  // namespace
}  // namespace delphi::transport
