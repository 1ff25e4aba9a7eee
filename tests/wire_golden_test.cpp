/// Golden wire-format tests: every message type's encoding is pinned to a
/// fixed byte string. These fail loudly on any accidental format change —
/// nodes running different builds must stay interoperable, and the
/// simulator's byte accounting (README.md "Substitutions") depends on these
/// exact layouts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aba/aba.hpp"
#include "abraham/abraham.hpp"
#include "benor/benor.hpp"
#include "binaa/message.hpp"
#include "delphi/message.hpp"
#include "dolev/dolev.hpp"
#include "rbc/rbc.hpp"
#include "transport/frame.hpp"

namespace delphi {
namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

template <typename M>
std::string encoded(const M& m) {
  ByteWriter w;
  m.serialize(w);
  EXPECT_EQ(w.size(), m.wire_size());
  return hex(w.data());
}

TEST(WireGolden, RbcEcho) {
  EXPECT_EQ(encoded(rbc::RbcMessage(rbc::RbcMessage::Kind::kEcho,
                                    {0xDE, 0xAD, 0xBE, 0xEF})),
            "0104deadbeef");
}

TEST(WireGolden, AbaAux) {
  EXPECT_EQ(encoded(aba::AbaMessage(aba::AbaMessage::Kind::kAux, 3, true)),
            "010301");
}

TEST(WireGolden, BenOrPropose) {
  // round 300 exercises the multi-byte uvarint (0xac 0x02).
  EXPECT_EQ(encoded(benor::BenOrMessage(benor::BenOrMessage::Kind::kPropose,
                                        300, benor::kBottom)),
            "01ac0202");
}

TEST(WireGolden, BinAaEcho2) {
  // value -7 exercises the zigzag svarint (0x0d).
  EXPECT_EQ(encoded(binaa::EchoMessage(2, 5, -7)), "02050d");
}

TEST(WireGolden, DolevRoundValue) {
  // 1.5 == 0x3ff8000000000000, little-endian.
  EXPECT_EQ(encoded(dolev::RoundValueMessage(2, 1.5)),
            "02000000000000f83f");
}

TEST(WireGolden, AbrahamWitness) {
  EXPECT_EQ(encoded(abraham::WitnessMessage(1, {0, 2, 300})), "01030002ac02");
}

TEST(WireGolden, DelphiBundle) {
  EXPECT_EQ(encoded(protocol::DelphiBundle(
                {protocol::DefaultEcho{1, 2, 4, 9}},
                {protocol::ExplicitEcho{0, -3, 1, 2, 129}})),
            "010102041201000501028202");
}

TEST(WireGolden, AuthenticatedFrame) {
  crypto::Key key{};
  key.fill(0x42);
  const auto frame =
      transport::encode_frame(7, std::vector<std::uint8_t>{1, 2, 3}, &key);
  EXPECT_EQ(hex(frame),
            "2400000007010203cda73bcb2aa9ab36ad045c9f738f8cc9e4218e299c2e46c5"
            "c3d1b56a91187b4c");
}

TEST(WireGolden, HighChannelFrameMatchesFramedSize) {
  // Multi-instance sessions shift channels into high windows (sid * 2^16),
  // where the channel uvarint takes 3-5 bytes instead of 1. The simulator's
  // byte accounting (net::framed_size) must equal the actual encoded frame
  // size at every window base or sim != tcp != udp byte parity breaks.
  crypto::Key key{};
  key.fill(0x42);
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const std::uint32_t channels[] = {
      0,           127,         128,
      1u << 16,              // instance window 1 (3-byte uvarint)
      (1u << 21) + 5,        // beyond 2^21 (4-byte uvarint)
      3u << 16,              // a mid-pipeline window base
      0xFFFFFFFFu,           // top of the channel space (5-byte uvarint)
  };
  for (std::uint32_t ch : channels) {
    const auto auth_frame = transport::encode_frame(ch, payload, &key);
    EXPECT_EQ(auth_frame.size(),
              net::framed_size(payload.size(), ch, /*authenticated=*/true))
        << "channel " << ch;
    const auto plain_frame = transport::encode_frame(ch, payload, nullptr);
    EXPECT_EQ(plain_frame.size(),
              net::framed_size(payload.size(), ch, /*authenticated=*/false))
        << "channel " << ch;
  }
}

TEST(WireGolden, HighChannelFrameRoundTrips) {
  // FrameParser must hand back the exact channel and payload for frames in
  // high instance windows (both auth modes).
  crypto::Key key{};
  key.fill(0x42);
  const std::vector<std::uint8_t> payload{0xDE, 0xAD, 0xBE, 0xEF};
  for (std::uint32_t ch :
       {1u << 16, (1u << 21) + 5, 7u << 16, 0xFFFFFFFFu}) {
    {
      transport::FrameParser parser(&key);
      parser.feed(transport::encode_frame(ch, payload, &key));
      auto f = parser.next();
      ASSERT_TRUE(f.has_value()) << "channel " << ch;
      EXPECT_EQ(f->channel, ch);
      EXPECT_EQ(f->payload, payload);
      EXPECT_EQ(parser.buffered(), 0u);
    }
    {
      transport::FrameParser parser;
      parser.feed(transport::encode_frame(ch, payload, nullptr));
      auto f = parser.next();
      ASSERT_TRUE(f.has_value()) << "channel " << ch;
      EXPECT_EQ(f->channel, ch);
      EXPECT_EQ(f->payload, payload);
    }
  }
}

TEST(WireGolden, GoldenBytesDecodeBack) {
  // The pinned encodings stay decodable (golden test's other direction).
  {
    ByteWriter w;
    dolev::RoundValueMessage(2, 1.5).serialize(w);
    ByteReader r(w.data());
    auto m = dolev::RoundValueMessage::decode(r);
    EXPECT_EQ(m->round(), 2u);
    EXPECT_DOUBLE_EQ(m->value(), 1.5);
  }
  {
    ByteWriter w;
    protocol::DelphiBundle({protocol::DefaultEcho{1, 2, 4, 9}},
                           {protocol::ExplicitEcho{0, -3, 1, 2, 129}})
        .serialize(w);
    ByteReader r(w.data());
    auto b = protocol::DelphiBundle::decode(r);
    ASSERT_EQ(b->defaults().size(), 1u);
    ASSERT_EQ(b->explicits().size(), 1u);
    EXPECT_EQ(b->defaults()[0].round, 4u);
    EXPECT_EQ(b->explicits()[0].k, -3);
    EXPECT_EQ(b->explicits()[0].value, 129);
  }
}

}  // namespace
}  // namespace delphi
