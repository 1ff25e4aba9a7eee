/// Tests for the PR-5 TCP data-plane overhaul: crypto::HmacKey midstate
/// equivalence with one-shot HMAC, the one-serialization broadcast framing
/// invariant (shared body + per-link tag == legacy whole-frame encoding,
/// byte for byte), FrameParser buffer reuse across the lazy-compaction
/// boundary and under many-small-frames bursts, authenticated-link tamper
/// rejection, the nodelay knob, send-path backpressure (a sender that fills the socket buffer until
/// write(2) returns EAGAIN must still deliver every frame in order),
/// netem holdback order (a frame due at send time must not overtake due
/// frames the shim still holds), broadcast coalescing (one frame per
/// channel per loop pass) and the one-read-per-peer pass budget.

#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "net/message.hpp"
#include "net/wakeup.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "transport/frame.hpp"
#include "transport/tcp.hpp"
#include "tests/coalesce_util.hpp"

namespace delphi::transport {
namespace {

using scenario::ScenarioSpec;
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

// ---------------------------------------------------------------- nodelay

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

// ------------------------------------------------ send-path backpressure

/// Payload sizes the backpressure sender cycles through: both sides of 256 B
/// and one body larger than a node's 64 KiB read buffer.
constexpr std::size_t kBackpressureSizes[] = {1, 64, 255, 257, 300, 70'000};
constexpr std::size_t kBackpressureFrames = 3'000;

/// Byte i of backpressure frame k: a receiver that sees frames out of order,
/// torn or spliced reads a different pattern.
std::uint8_t pattern_byte(std::size_t k, std::size_t i) {
  return static_cast<std::uint8_t>(k * 131 + i * 7 + (i >> 8));
}

/// An opaque payload carried verbatim.
class Blob final : public net::MessageBody {
 public:
  explicit Blob(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}
  std::size_t wire_size() const override { return bytes_.size(); }
  void serialize(ByteWriter& w) const override { w.raw(bytes_); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

Decoder blob_decoder() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    const auto s = r.raw(r.remaining());
    return std::make_shared<Blob>(
        std::vector<std::uint8_t>(s.begin(), s.end()));
  };
}

/// Node 0 queues every frame for node 1 at start, far more than a socket
/// buffer holds; node 1 stalls in its first handler, so node 0's writes hit
/// EAGAIN and wait for POLLOUT. Node 1 checks each frame against the
/// pattern for its arrival index.
class Backpressure final : public net::Protocol {
 public:
  explicit Backpressure(bool receiver) : receiver_(receiver) {}

  void on_start(net::Context& ctx) override {
    if (receiver_) return;
    for (std::size_t k = 0; k < kBackpressureFrames; ++k) {
      std::vector<std::uint8_t> bytes(
          kBackpressureSizes[k % std::size(kBackpressureSizes)]);
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = pattern_byte(k, i);
      }
      ctx.send(1, 0, std::make_shared<Blob>(std::move(bytes)));
    }
  }
  void on_message(net::Context&, NodeId from, std::uint32_t,
                  const net::MessageBody& body) override {
    if (received_ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    const auto& bytes = dynamic_cast<const Blob&>(body).bytes();
    const std::size_t k = received_++;
    bool exact =
        from == 0 &&
        bytes.size() == kBackpressureSizes[k % std::size(kBackpressureSizes)];
    for (std::size_t i = 0; exact && i < bytes.size(); ++i) {
      exact = bytes[i] == pattern_byte(k, i);
    }
    if (!exact) ++mismatched_;
  }
  bool terminated() const override {
    return !receiver_ || received_ >= kBackpressureFrames;
  }

  std::size_t received() const { return received_; }
  std::size_t mismatched() const { return mismatched_; }

 private:
  bool receiver_;
  std::size_t received_ = 0;
  std::size_t mismatched_ = 0;
};

/// Run the backpressure exchange on a 2-node cluster, authenticated and
/// plaintext, with `netem` on every link.
void run_backpressure(const net::netem::Config& netem) {
  for (const bool auth : {true, false}) {
    SCOPED_TRACE(auth);
    TcpCluster::Options opts;
    opts.n = 2;
    opts.auth = auth;
    opts.timeout_ms = 60'000;  // room for sanitizer builds
    opts.netem = netem;
    TcpCluster cluster(opts);
    cluster.start(
        [](NodeId i) { return std::make_unique<Backpressure>(i == 1); },
        blob_decoder());
    ASSERT_TRUE(cluster.wait());
    ASSERT_TRUE(cluster.failures().empty());
    const auto& rx = dynamic_cast<const Backpressure&>(cluster.protocol(1));
    EXPECT_EQ(rx.received(), kBackpressureFrames);
    EXPECT_EQ(rx.mismatched(), 0u);
    EXPECT_EQ(cluster.metrics(1).msgs_delivered, kBackpressureFrames);
    EXPECT_EQ(cluster.metrics(1).malformed_dropped, 0u);
  }
}

TEST(TcpBackpressure, FullSocketBufferKeepsFramesOrderedAndExact) {
  run_backpressure({});
}

TEST(TcpBackpressure, FramesQueuedBehindAPartialWriteStayOrdered) {
  // A 50 B/us token bucket releases the ~35 MB over ~700 ms, in send
  // order, so frames keep joining the link's buffer while the receiver
  // stalls and then drains the bytes written before them.
  net::netem::Config netem;
  netem.rate_bytes_per_us = 50.0;
  run_backpressure(netem);
}

/// Node 0 sends a frame larger than the token bucket's burst credit, so the
/// shim holds it, waits in the same handler until the bucket has refilled,
/// then sends a one-byte frame the shim releases at once. Node 1 records
/// the first byte of each frame in arrival order.
class HoldbackProbe final : public net::Protocol {
 public:
  explicit HoldbackProbe(bool receiver) : receiver_(receiver) {}

  void on_start(net::Context& ctx) override {
    if (receiver_) return;
    ctx.send(1, 0,
             std::make_shared<Blob>(std::vector<std::uint8_t>(30'000, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ctx.send(1, 0, std::make_shared<Blob>(std::vector<std::uint8_t>{2}));
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody& body) override {
    arrivals_.push_back(dynamic_cast<const Blob&>(body).bytes().front());
  }
  bool terminated() const override {
    return !receiver_ || arrivals_.size() >= 2;
  }

  const std::vector<std::uint8_t>& arrivals() const { return arrivals_; }

 private:
  bool receiver_;
  std::vector<std::uint8_t> arrivals_;
};

TEST(TcpNetem, FrameDueAtSendQueuesBehindDueHeldFrames) {
  // 1 B/us with the default 20 ms bucket: 20 000 B of burst credit, so the
  // 30 000 B frame is held ~10 ms and the bucket is full again 40 ms later.
  // Both frames are due before the event loop next runs; they must leave
  // in send order.
  TcpCluster::Options opts;
  opts.n = 2;
  opts.netem.rate_bytes_per_us = 1.0;
  TcpCluster cluster(opts);
  cluster.start(
      [](NodeId i) { return std::make_unique<HoldbackProbe>(i == 1); },
      blob_decoder());
  ASSERT_TRUE(cluster.wait());
  const auto& rx = dynamic_cast<const HoldbackProbe&>(cluster.protocol(1));
  EXPECT_EQ(rx.arrivals(), (std::vector<std::uint8_t>{1, 2}));
}

// ------------------------------------------------- broadcast coalescing

TEST(TcpCoalesce, HeldBroadcastsLeaveAsOneFrame) {
  test::expect_held_broadcasts_leave_as_one_frame<TcpCluster>();
}

/// Frames node 1 streams at node 0, and their payload size.
constexpr std::size_t kStreamFrames = 20'000;
constexpr std::size_t kStreamPayload = 64;

/// Node 1 sends kStreamFrames Markers to node 0 in on_start. Node 0 stalls
/// in its first delivery, so the stream piles up in its socket, and then
/// broadcasts one IdList per Marker; node 1 records the most ids one merged
/// frame carries.
class StreamEcho final : public net::Protocol {
 public:
  explicit StreamEcho(bool streamer) : streamer_(streamer) {}

  void on_start(net::Context& ctx) override {
    if (!streamer_) return;
    for (std::size_t k = 0; k < kStreamFrames; ++k) {
      ctx.send(0, test::kMarkerChannel,
               std::make_shared<test::Marker>(std::vector<std::uint8_t>(
                   kStreamPayload, static_cast<std::uint8_t>(k))));
    }
  }
  void on_message(net::Context& ctx, NodeId from, std::uint32_t,
                  const net::MessageBody& body) override {
    if (from == ctx.self()) return;
    if (streamer_) {
      const auto& ids = dynamic_cast<const test::IdList&>(body).ids();
      max_parts_ = std::max(max_parts_, ids.size());
      received_ += ids.size();
      return;
    }
    if (received_++ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    ctx.broadcast(test::kIdChannel,
                  std::make_shared<test::IdList>(std::vector<std::uint32_t>{
                      static_cast<std::uint32_t>(received_)}));
  }
  bool terminated() const override { return received_ >= kStreamFrames; }

  std::size_t received() const { return received_; }
  std::size_t max_parts() const { return max_parts_; }

 private:
  bool streamer_;
  std::size_t received_ = 0;
  std::size_t max_parts_ = 0;
};

TEST(TcpReadBudget, StreamingPeerCannotHoldBackHeldBroadcasts) {
  // A pass reads at most one 64 KiB buffer from a peer, so the broadcasts
  // one pass holds answer at most that many frames (+1 for a frame split
  // across two reads). Reading until EAGAIN would merge thousands.
  TcpCluster::Options opts;
  opts.n = 2;
  opts.timeout_ms = 60'000;  // room for sanitizer builds
  TcpCluster cluster(opts);
  cluster.start(
      [](NodeId i) { return std::make_unique<StreamEcho>(i == 1); },
      test::decode_id_or_marker);
  ASSERT_TRUE(cluster.wait());
  ASSERT_TRUE(cluster.failures().empty());
  const std::size_t frame =
      net::framed_size(kStreamPayload, test::kMarkerChannel, true);
  const auto& echo = dynamic_cast<const StreamEcho&>(cluster.protocol(0));
  const auto& streamer = dynamic_cast<const StreamEcho&>(cluster.protocol(1));
  EXPECT_EQ(echo.received(), kStreamFrames);
  EXPECT_EQ(streamer.received(), kStreamFrames);
  EXPECT_LE(streamer.max_parts(), 64 * 1024 / frame + 1);
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
