/// Tests for the TCP transport: frame codec (roundtrip, incremental parsing,
/// tamper/garbage rejection, serialize() held to wire_size()), cluster mesh
/// bring-up, the DORA oracle's certificates over real sockets, and timeout
/// paths. Every registry protocol's run on tcp (and udp) is in
/// substrate_suite_test.

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "oracle/dora.hpp"
#include "sim/byzantine.hpp"
#include "transport/decoders.hpp"
#include "transport/tcp.hpp"

namespace delphi::transport {
namespace {

crypto::Key test_key(std::uint8_t fill) {
  crypto::Key k{};
  k.fill(fill);
  return k;
}

// -------------------------------------------------------------- frame codec

TEST(Frame, RoundTripAuthenticated) {
  const auto key = test_key(7);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto frame = encode_frame(42, payload, &key);
  EXPECT_EQ(frame.size(), net::framed_size(payload.size(), 42, true));

  FrameParser parser(&key);
  parser.feed(frame);
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->channel, 42u);
  EXPECT_EQ(f->payload, payload);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Frame, RoundTripUnauthenticated) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const auto frame = encode_frame(3, payload, nullptr);
  EXPECT_EQ(frame.size(), net::framed_size(payload.size(), 3, false));
  FrameParser parser(nullptr);
  parser.feed(frame);
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, payload);
}

TEST(Frame, IncrementalByteByByte) {
  const auto key = test_key(1);
  const std::vector<std::uint8_t> payload(100, 0xAB);
  const auto frame = encode_frame(7, payload, &key);
  FrameParser parser(&key);
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    parser.feed(std::span<const std::uint8_t>(&frame[i], 1));
    EXPECT_FALSE(parser.next().has_value());
  }
  parser.feed(std::span<const std::uint8_t>(&frame.back(), 1));
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, payload);
}

TEST(Frame, MultipleFramesOneFeed) {
  const auto key = test_key(2);
  std::vector<std::uint8_t> stream;
  for (std::uint32_t c = 0; c < 5; ++c) {
    const std::vector<std::uint8_t> payload(c + 1, static_cast<std::uint8_t>(c));
    const auto frame = encode_frame(c, payload, &key);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameParser parser(&key);
  parser.feed(stream);
  for (std::uint32_t c = 0; c < 5; ++c) {
    auto f = parser.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->channel, c);
    EXPECT_EQ(f->payload.size(), c + 1);
  }
  EXPECT_FALSE(parser.next().has_value());
}

TEST(Frame, TamperedPayloadRejected) {
  const auto key = test_key(3);
  const std::vector<std::uint8_t> payload = {10, 20, 30};
  auto frame = encode_frame(1, payload, &key);
  frame[6] ^= 0x01;  // flip a payload bit
  FrameParser parser(&key);
  parser.feed(frame);
  EXPECT_THROW(parser.next(), ProtocolViolation);
}

TEST(Frame, WrongKeyRejected) {
  const auto k1 = test_key(4);
  const auto k2 = test_key(5);
  const std::vector<std::uint8_t> payload = {1};
  const auto frame = encode_frame(0, payload, &k1);
  FrameParser parser(&k2);
  parser.feed(frame);
  EXPECT_THROW(parser.next(), ProtocolViolation);
}

TEST(Frame, OversizedPrefixRejected) {
  ByteWriter w;
  w.u32(kMaxFrameBytes + 1);
  FrameParser parser(nullptr);
  parser.feed(w.data());
  EXPECT_THROW(parser.next(), SerializationError);
}

TEST(Frame, TruncatedBodyRejected) {
  // Authenticated frame whose body is shorter than a MAC tag.
  const auto key = test_key(6);
  ByteWriter w;
  w.u32(3);
  w.u8(0);  // channel
  w.u8(1);
  w.u8(2);
  FrameParser parser(&key);
  parser.feed(w.data());
  EXPECT_THROW(parser.next(), SerializationError);
}

TEST(Frame, SerializeMustWriteExactlyWireSize) {
  // The length prefix and the byte accounting come from wire_size(); a
  // message that writes a different size must fail loudly, not desync the
  // stream.
  class ShortBySizeOne final : public net::MessageBody {
   public:
    std::size_t wire_size() const override { return 3; }
    void serialize(ByteWriter& w) const override {
      for (std::uint8_t b : {1, 2, 3, 4}) w.u8(b);
    }
  };
  EXPECT_THROW(encode_frame_body(0, ShortBySizeOne(), true), InternalError);
  EXPECT_THROW(encode_frame_body(0, ShortBySizeOne(), false), InternalError);
}

// ----------------------------------------------------------- cluster basics

protocol::DelphiParams tcp_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;
  return p;
}

TEST(TcpCluster, PortsResolvedAndDistinct) {
  TcpCluster::Options opts;
  opts.n = 4;
  TcpCluster cluster(opts);
  cluster.start(
      [](NodeId) { return std::make_unique<sim::SilentProtocol>(); },
      decoders::delphi());
  EXPECT_TRUE(cluster.wait());
  std::set<std::uint16_t> ports;
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_GT(cluster.port(i), 0);
    ports.insert(cluster.port(i));
  }
  EXPECT_EQ(ports.size(), 4u);
}

TEST(TcpCluster, TimeoutOnNonTerminatingProtocol) {
  /// Never terminates and never sends — wait() must give up.
  class Stuck final : public net::Protocol {
   public:
    void on_start(net::Context&) override {}
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return false; }
  };
  TcpCluster::Options opts;
  opts.n = 2;
  opts.timeout_ms = 300;
  TcpCluster cluster(opts);
  cluster.start([](NodeId) { return std::make_unique<Stuck>(); },
                decoders::delphi());
  EXPECT_FALSE(cluster.wait());
}

TEST(TcpCluster, DoraEndToEndOverSockets) {
  // The full §V oracle pipeline over real sockets: Delphi agreement,
  // rounding, attestation shares, t+1 certificates at every node, at most
  // two distinct certified values (Table III).
  const std::size_t n = 4;
  const auto params = tcp_params();
  std::vector<double> inputs = {40010.0, 40012.5, 40011.2, 40013.8};
  crypto::KeyStore keys(/*master=*/99, n);
  crypto::Attestor attestor(keys, /*session_id=*/7);

  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        oracle::DoraProtocol::Config c;
        c.delphi.n = n;
        c.delphi.t = max_faults(n);
        c.delphi.params = params;
        c.delphi.params.space_max = 100'000.0;
        c.delphi.params.delta_max = 64.0;
        c.attestor = &attestor;
        return std::make_unique<oracle::DoraProtocol>(c, inputs[i]);
      },
      decoders::dora());
  ASSERT_TRUE(cluster.wait());

  std::set<std::int64_t> certified_values;
  for (NodeId i = 0; i < n; ++i) {
    const auto& p =
        dynamic_cast<const oracle::DoraProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(p.terminated());
    const auto& cert = p.certificate();
    EXPECT_TRUE(attestor.verify(cert, max_faults(n) + 1));
    certified_values.insert(cert.value_index);
  }
  EXPECT_LE(certified_values.size(), 2u);  // Table III: at most two outputs
}

}  // namespace
}  // namespace delphi::transport
