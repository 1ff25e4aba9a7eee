/// Decoder robustness ("fuzz-lite") suite: every wire decoder in the repo is
/// fed (a) random bytes, (b) truncated prefixes of valid encodings, and
/// (c) bit-flipped valid encodings. The contract: decoders either return a
/// well-formed message or throw SerializationError/ProtocolViolation — never
/// crash, hang, or over-allocate. This is the property that lets honest
/// nodes treat arbitrary Byzantine bytes safely.
///
/// The UDP datagram path rides the same harness (packed data + ack codecs
/// under truncation/flips/garbage) plus its own properties: an
/// authenticated datagram that is truncated, renumbered or tampered in any
/// byte must fail and deliver none of its frames (one tag covers the seq,
/// the ack section and every packed frame), claimed lengths and counts are
/// checked before anything is allocated, and SeqFilter must deliver each
/// seq exactly once no matter how datagrams are duplicated or reordered.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>

#include "aba/aba.hpp"
#include "abraham/abraham.hpp"
#include "benor/benor.hpp"
#include "binaa/message.hpp"
#include "common/rng.hpp"
#include "delphi/message.hpp"
#include "dolev/dolev.hpp"
#include "oracle/dora.hpp"
#include "oracle/dora_baseline.hpp"
#include "rbc/rbc.hpp"
#include "transport/frame.hpp"
#include "transport/udp.hpp"

namespace delphi {
namespace {

using Decoder = std::function<void(ByteReader&)>;

struct DecoderCase {
  const char* name;
  Decoder decode;
  std::vector<std::uint8_t> valid;  // one known-good encoding
};

/// The three frames every packed-datagram case carries: distinct channels
/// and payload sizes, one of them empty.
std::vector<transport::SharedFrameBody> three_frames(bool auth) {
  return {transport::encode_frame_body(2, std::vector<std::uint8_t>{4, 5, 6},
                                       auth),
          transport::encode_frame_body(300, std::vector<std::uint8_t>{}, auth),
          transport::encode_frame_body(
              7, std::vector<std::uint8_t>(200, 0xAB), auth)};
}

std::vector<std::uint8_t> three_frame_datagram(
    std::uint32_t seq, std::span<const std::uint32_t> sacks,
    const crypto::HmacKey* key) {
  return transport::encode_data_datagram(seq, /*cum=*/9, sacks,
                                         three_frames(key != nullptr), key);
}

std::vector<DecoderCase> all_decoders() {
  std::vector<DecoderCase> cases;

  {
    rbc::RbcMessage m(rbc::RbcMessage::Kind::kEcho, {1, 2, 3});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"rbc", [](ByteReader& r) { rbc::RbcMessage::decode(r); },
                     w.take()});
  }
  {
    aba::AbaMessage m(aba::AbaMessage::Kind::kAux, 3, true);
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"aba", [](ByteReader& r) { aba::AbaMessage::decode(r); },
                     w.take()});
  }
  {
    binaa::EchoMessage m(1, 5, 12345);
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"binaa",
                     [](ByteReader& r) { binaa::EchoMessage::decode(r); },
                     w.take()});
  }
  {
    protocol::DelphiBundle m({{0, 1, 1, 0}}, {{1, 7, 2, 3, 64}});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"delphi_bundle",
                     [](ByteReader& r) { protocol::DelphiBundle::decode(r); },
                     w.take()});
  }
  {
    abraham::WitnessMessage m(2, {0, 1, 3});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"witness",
                     [](ByteReader& r) { abraham::WitnessMessage::decode(r); },
                     w.take()});
  }
  {
    oracle::AttestMessage m(99, crypto::Digest{});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"attest",
                     [](ByteReader& r) { oracle::AttestMessage::decode(r); },
                     w.take()});
  }
  {
    oracle::SignedValueMessage m(1.5, crypto::Digest{});
    ByteWriter w;
    m.serialize(w);
    cases.push_back(
        {"dora_signed",
         [](ByteReader& r) { oracle::SignedValueMessage::decode(r); },
         w.take()});
  }
  {
    oracle::ValueListMessage m({{0, 1.0, crypto::Digest{}}});
    ByteWriter w;
    m.serialize(w);
    cases.push_back(
        {"dora_list",
         [](ByteReader& r) { oracle::ValueListMessage::decode(r); },
         w.take()});
  }
  {
    dolev::RoundValueMessage m(4, 2.25);
    ByteWriter w;
    m.serialize(w);
    cases.push_back(
        {"dolev",
         [](ByteReader& r) { dolev::RoundValueMessage::decode(r); },
         w.take()});
  }
  {
    benor::BenOrMessage m(benor::BenOrMessage::Kind::kPropose, 9,
                          benor::kBottom);
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"benor",
                     [](ByteReader& r) { benor::BenOrMessage::decode(r); },
                     w.take()});
  }
  {
    // The TCP frame parser as a "decoder": consume one whole stream. A
    // static key keeps the lambda capture-free like the other cases.
    static const crypto::Key key = [] {
      crypto::Key k{};
      k.fill(0x5A);
      return k;
    }();
    const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
    cases.push_back({"tcp_frame",
                     [](ByteReader& r) {
                       transport::FrameParser p(&key);
                       p.feed(r.raw(r.remaining()));
                       while (p.next().has_value()) {
                       }
                     },
                     transport::encode_frame(3, payload, &key)});
  }
  {
    // UDP data datagram (authenticated): kind | seq | ack section | three
    // packed frames | one tag over all of it. A static key keeps the
    // lambda capture-free.
    static const crypto::HmacKey udp_key = [] {
      crypto::Key k{};
      k.fill(0xC3);
      return crypto::HmacKey(k);
    }();
    const std::uint32_t sacks[] = {13, 15};
    cases.push_back({"udp_data",
                     [](ByteReader& r) {
                       transport::DatagramView d;
                       transport::decode_datagram(r.raw(r.remaining()),
                                                  &udp_key, d);
                     },
                     three_frame_datagram(11, sacks, &udp_key)});
  }
  {
    // UDP ack datagram (authenticated): kind | cum | sack list | tag.
    static const crypto::HmacKey udp_ack_key = [] {
      crypto::Key k{};
      k.fill(0x96);
      return crypto::HmacKey(k);
    }();
    const std::uint32_t sacks[] = {5, 7, 9};
    cases.push_back({"udp_ack",
                     [](ByteReader& r) {
                       transport::DatagramView d;
                       transport::decode_datagram(r.raw(r.remaining()),
                                                  &udp_ack_key, d);
                     },
                     transport::encode_ack_datagram(3, sacks, &udp_ack_key)});
  }
  {
    // Plaintext UDP data datagram: structural checks only, no MAC.
    cases.push_back({"udp_data_plain",
                     [](ByteReader& r) {
                       transport::DatagramView d;
                       transport::decode_datagram(r.raw(r.remaining()),
                                                  nullptr, d);
                     },
                     three_frame_datagram(0, {}, nullptr)});
  }
  return cases;
}

/// Run a decoder over input; pass iff it returns or throws a project error.
void expect_graceful(const DecoderCase& c,
                     const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  try {
    c.decode(r);
  } catch (const Error&) {
    // SerializationError / ProtocolViolation: the defined failure mode.
  }
  // Anything else (std::bad_alloc, segfault, infinite loop) fails the test
  // by crashing or timing out.
}

TEST(FuzzDecode, RandomBytes) {
  Rng rng(0xF022);
  for (const auto& c : all_decoders()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<std::uint8_t> junk(rng.below(96));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
      expect_graceful(c, junk);
    }
  }
}

TEST(FuzzDecode, TruncatedPrefixes) {
  for (const auto& c : all_decoders()) {
    for (std::size_t len = 0; len < c.valid.size(); ++len) {
      std::vector<std::uint8_t> prefix(c.valid.begin(),
                                       c.valid.begin() + len);
      expect_graceful(c, prefix);
    }
  }
}

TEST(FuzzDecode, SingleBitFlips) {
  for (const auto& c : all_decoders()) {
    for (std::size_t byte = 0; byte < c.valid.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = c.valid;
        mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
        expect_graceful(c, mutated);
      }
    }
  }
}

TEST(FuzzDecode, HugeClaimedCountsDontAllocate) {
  // Length fields claiming astronomical sizes must be rejected before any
  // allocation (each decoder validates counts against remaining bytes).
  for (const auto& c : all_decoders()) {
    ByteWriter w;
    w.uvarint((1ULL << 50));
    w.u8(0);
    expect_graceful(c, w.data());
  }
}

TEST(FuzzDecode, ValidEncodingsStillDecodeAfterSuite) {
  // Sanity: the canonical encodings do decode (the suite isn't vacuous).
  for (const auto& c : all_decoders()) {
    ByteReader r(c.valid);
    EXPECT_NO_THROW(c.decode(r)) << c.name;
  }
}

// ------------------------------------------------------ udp datagram path

crypto::HmacKey test_key(std::uint8_t fill) {
  crypto::Key k{};
  k.fill(fill);
  return crypto::HmacKey(k);
}

/// `content` followed by its tag under `key`: a datagram a peer holding the
/// link key could send, so only the structural checks can reject it.
std::vector<std::uint8_t> tagged(std::vector<std::uint8_t> content,
                                 const crypto::HmacKey& key) {
  const crypto::Digest tag = key.tag(content);
  content.insert(content.end(), tag.begin(), tag.end());
  return content;
}

TEST(UdpDatagram, ThreeFramesRoundTripInOrder) {
  const crypto::HmacKey key = test_key(0x42);
  const std::uint32_t sacks[] = {12, 14, 15};
  for (const crypto::HmacKey* k : {&key, static_cast<const crypto::HmacKey*>(
                                             nullptr)}) {
    SCOPED_TRACE(k != nullptr ? "auth" : "plain");
    const auto frames = three_frames(k != nullptr);
    const auto bytes = transport::encode_data_datagram(7, 9, sacks, frames, k);
    transport::DatagramView d;
    ASSERT_NO_THROW(transport::decode_datagram(bytes, k, d));
    EXPECT_FALSE(d.is_ack);
    EXPECT_EQ(d.seq, 7u);
    EXPECT_EQ(d.cum, 9u);
    EXPECT_EQ(d.sacks, std::vector<std::uint32_t>(std::begin(sacks),
                                                  std::end(sacks)));
    ASSERT_EQ(d.frames.size(), 3u);
    const std::uint32_t channels[] = {2, 300, 7};
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(d.frames[i].channel, channels[i]) << i;
      // The payload is the frame body after its prefix and channel.
      const auto body = std::span<const std::uint8_t>(*frames[i]);
      const auto want = body.subspan(4 + uvarint_size(channels[i]));
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             d.frames[i].payload.begin(),
                             d.frames[i].payload.end()))
          << i;
    }
  }
}

TEST(UdpDatagram, RenumberedOrTamperedDatagramFailsAuthentication) {
  // The one datagram tag covers the sequence number, the ack section and
  // every packed frame, so a replay under a different seq or a flip of any
  // bit — header, ack fields, any inner frame, or the tag — must fail the
  // MAC, and so must every truncation: no frame and no ack of a mangled
  // datagram is ever decoded.
  const crypto::HmacKey key = test_key(0x42);
  const std::uint32_t sacks[] = {12, 14};
  const std::uint32_t ack_sacks[] = {5, 7};
  const auto valid = three_frame_datagram(7, sacks, &key);
  transport::DatagramView d;
  EXPECT_NO_THROW(transport::decode_datagram(valid, &key, d));

  auto renumbered = valid;
  renumbered[1] ^= 0x01;  // seq byte: replay under a different number
  EXPECT_THROW(transport::decode_datagram(renumbered, &key, d),
               ProtocolViolation);

  for (const auto& bytes :
       {valid, transport::encode_ack_datagram(3, ack_sacks, &key)}) {
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto tampered = bytes;
        tampered[byte] ^= static_cast<std::uint8_t>(1 << bit);
        EXPECT_THROW(transport::decode_datagram(tampered, &key, d),
                     ProtocolViolation)
            << "byte " << byte << " bit " << bit;
      }
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + len);
      EXPECT_THROW(transport::decode_datagram(prefix, &key, d), Error) << len;
    }
  }
}

TEST(UdpDatagram, TruncatedInnerFrameRejectsWholeDatagram) {
  // Two whole frames followed by one cut short: the datagram is rejected
  // as a unit, so the two good frames are not delivered either. Re-tagging
  // the cut bytes shows the structural check holds behind a valid MAC.
  const crypto::HmacKey key = test_key(0x42);
  const auto plain = three_frame_datagram(4, {}, nullptr);
  const std::vector<std::uint8_t> cut(plain.begin(), plain.end() - 5);
  transport::DatagramView d;
  EXPECT_THROW(transport::decode_datagram(cut, nullptr, d),
               SerializationError);

  const auto authed = transport::encode_data_datagram(
      4, 9, {}, three_frames(true), &key);
  const std::vector<std::uint8_t> authed_cut(
      authed.begin(),
      authed.end() - static_cast<std::ptrdiff_t>(crypto::kMacTagSize + 5));
  EXPECT_THROW(transport::decode_datagram(tagged(authed_cut, key), &key, d),
               SerializationError);
}

TEST(UdpDatagram, HugeClaimsRejectedBeforeAllocation) {
  // Astronomical sack counts and frame lengths fail against the bytes that
  // are actually there — on plaintext links and behind a valid tag alike.
  const crypto::HmacKey key = test_key(0x42);
  transport::DatagramView d;

  ByteWriter ack;
  ack.u8(transport::kDatagramAck);
  ack.u32(0);
  ack.uvarint(1ULL << 40);  // astronomical claimed sack count
  EXPECT_THROW(transport::decode_datagram(ack.data(), nullptr, d),
               SerializationError);
  EXPECT_THROW(transport::decode_datagram(tagged(ack.data(), key), &key, d),
               SerializationError);

  ByteWriter sacks;  // within kMaxAckSacks, but beyond the datagram
  sacks.u8(transport::kDatagramData);
  sacks.u32(0);
  sacks.u32(0);
  sacks.uvarint(transport::kMaxAckSacks);
  sacks.u32(1);
  EXPECT_THROW(transport::decode_datagram(sacks.data(), nullptr, d),
               SerializationError);
  EXPECT_THROW(transport::decode_datagram(tagged(sacks.data(), key), &key, d),
               SerializationError);

  ByteWriter frame;
  frame.u8(transport::kDatagramData);
  frame.u32(0);
  frame.u32(0);
  frame.uvarint(0);
  frame.uvarint(1ULL << 50);  // astronomical claimed frame length
  frame.u8(0);
  EXPECT_THROW(transport::decode_datagram(frame.data(), nullptr, d),
               SerializationError);
  EXPECT_THROW(transport::decode_datagram(tagged(frame.data(), key), &key, d),
               SerializationError);
  EXPECT_TRUE(d.frames.empty());
}

TEST(UdpSeqFilter, DupAndReorderNeverMisdeliver) {
  // Shuffle seqs 0..199 with every one duplicated three times: each must be
  // accepted exactly once, in any arrival order, and the cumulative floor
  // must reach 200 at the end.
  Rng rng(0xD06);
  std::vector<std::uint32_t> arrivals;
  for (std::uint32_t s = 0; s < 200; ++s) {
    for (int copy = 0; copy < 3; ++copy) arrivals.push_back(s);
  }
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[rng.below(i)]);
  }
  transport::SeqFilter filter;
  std::vector<int> accepted(200, 0);
  for (const auto s : arrivals) {
    if (filter.accept(s)) ++accepted[s];
  }
  for (std::uint32_t s = 0; s < 200; ++s) {
    ASSERT_EQ(accepted[s], 1) << "seq " << s;
  }
  EXPECT_EQ(filter.cum(), 200u);
  EXPECT_EQ(filter.pending(), 0u);
}

}  // namespace
}  // namespace delphi
