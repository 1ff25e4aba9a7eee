/// Tests for the crypto substrate: SHA-256 against FIPS/NIST vectors,
/// HMAC-SHA256 against RFC 4231, key store symmetry, common coin, and the
/// DORA attestation certificate logic.

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/certificate.hpp"
#include "crypto/coin.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace delphi::crypto {
namespace {

// ------------------------------------------------------------------ SHA256 --

TEST(Sha256, NistEmpty) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, NistAbc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, NistTwoBlock) {
  EXPECT_EQ(to_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(to_hex(h.finalize()), to_hex(sha256(msg)));
  }
}

TEST(Sha256, PaddingBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string a(len, 'x');
    Sha256 one;
    one.update(a);
    Sha256 two;
    two.update(std::string_view(a).substr(0, len / 2));
    two.update(std::string_view(a).substr(len / 2));
    EXPECT_EQ(to_hex(one.finalize()), to_hex(two.finalize())) << len;
  }
}

/// Digest of `msg` through the portable scalar kernel, whatever the CPU
/// offers: FIPS 180-4 padding (§5.1.1), then every block through
/// detail::compress_scalar.
std::string scalar_kernel_hex(std::string_view msg) {
  std::vector<std::uint8_t> m(msg.begin(), msg.end());
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  for (int i = 7; i >= 0; --i) {
    m.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  detail::compress_scalar(h, m.data(), m.size() / 64);
  Digest d{};
  for (std::size_t i = 0; i < 32; ++i) {
    d[i] = static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  }
  return to_hex(d);
}

TEST(Sha256, ScalarKernelMatchesSelectedKernel) {
  // On a SHA-NI host sha256() never runs the scalar kernel, so every input
  // class above goes through both kernels here.
  const auto expect_same = [](std::string_view msg) {
    EXPECT_EQ(scalar_kernel_hex(msg), to_hex(sha256(msg))) << msg.size();
  };
  EXPECT_EQ(scalar_kernel_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  expect_same("");
  expect_same("abc");
  expect_same("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  expect_same(std::string(1'000'000, 'a'));
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    expect_same(std::string(len, 'x'));
  }
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::string msg(rng.below(1025), '\0');
    for (char& c : msg) c = static_cast<char>(rng.below(256));
    expect_same(msg);
  }
}

// -------------------------------------------------------------------- HMAC --

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string data = "Hi There";
  const auto mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(data.data()),
               data.size()));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(data.data()),
               data.size()));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqualConstantTimeSemantics) {
  Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// ---------------------------------------------------------------- KeyStore --

TEST(KeyStore, PairwiseSymmetric) {
  KeyStore ks(0xFEED, 8);
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      EXPECT_EQ(ks.channel_key(i, j), ks.channel_key(j, i));
    }
  }
}

TEST(KeyStore, KeysDistinct) {
  KeyStore ks(0xFEED, 6);
  EXPECT_NE(ks.channel_key(0, 1), ks.channel_key(0, 2));
  EXPECT_NE(ks.channel_key(0, 1), ks.channel_key(1, 2));
  EXPECT_NE(ks.node_key(0), ks.node_key(1));
  EXPECT_NE(ks.node_key(0), ks.channel_key(0, 0));
}

TEST(KeyStore, DeterministicByMaster) {
  KeyStore a(42, 5), b(42, 5), c(43, 5);
  EXPECT_EQ(a.channel_key(1, 3), b.channel_key(1, 3));
  EXPECT_NE(a.channel_key(1, 3), c.channel_key(1, 3));
}

// -------------------------------------------------------------------- Coin --

TEST(CommonCoin, SameSeedAgrees) {
  CommonCoin a(777), b(777);
  for (std::uint64_t inst = 0; inst < 8; ++inst) {
    for (std::uint32_t r = 1; r < 8; ++r) {
      EXPECT_EQ(a.toss(inst, r), b.toss(inst, r));
    }
  }
}

TEST(CommonCoin, RoughlyFair) {
  CommonCoin coin(2024);
  int ones = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    ones += coin.toss(static_cast<std::uint64_t>(i), 1);
  }
  EXPECT_GT(ones, trials / 2 - 200);
  EXPECT_LT(ones, trials / 2 + 200);
}

TEST(CommonCoin, ValueBelowBound) {
  CommonCoin coin(5);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_LT(coin.value(i, 1, 7), 7u);
  }
  EXPECT_EQ(coin.value(1, 1, 0), 0u);
}

// ------------------------------------------------------------- Certificate --

class CertificateTest : public ::testing::Test {
 protected:
  KeyStore keys_{0xC0FFEE, 7};
  Attestor attestor_{keys_, /*session_id=*/9};
};

TEST_F(CertificateTest, SignVerifyRoundTrip) {
  const auto share = attestor_.sign(3, 12345);
  EXPECT_TRUE(attestor_.verify(share));
}

TEST_F(CertificateTest, TamperedValueRejected) {
  auto share = attestor_.sign(3, 12345);
  share.value_index = 12346;
  EXPECT_FALSE(attestor_.verify(share));
}

TEST_F(CertificateTest, WrongSignerRejected) {
  auto share = attestor_.sign(3, 12345);
  share.signer = 4;
  EXPECT_FALSE(attestor_.verify(share));
  share.signer = 99;  // out of range
  EXPECT_FALSE(attestor_.verify(share));
}

TEST_F(CertificateTest, SessionSeparation) {
  Attestor other(keys_, /*session_id=*/10);
  const auto share = attestor_.sign(1, 5);
  EXPECT_FALSE(other.verify(share));  // replay across sessions fails
}

TEST_F(CertificateTest, AssembleRequiresThreshold) {
  std::vector<AttestationShare> shares;
  shares.push_back(attestor_.sign(0, 100));
  shares.push_back(attestor_.sign(1, 100));
  EXPECT_FALSE(attestor_.try_assemble(shares, 3).has_value());
  shares.push_back(attestor_.sign(2, 100));
  auto cert = attestor_.try_assemble(shares, 3);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->value_index, 100);
  EXPECT_TRUE(attestor_.verify(*cert, 3));
}

TEST_F(CertificateTest, DuplicateSignersDontCount) {
  std::vector<AttestationShare> shares;
  shares.push_back(attestor_.sign(0, 100));
  shares.push_back(attestor_.sign(0, 100));
  shares.push_back(attestor_.sign(0, 100));
  EXPECT_FALSE(attestor_.try_assemble(shares, 3).has_value());
}

TEST_F(CertificateTest, ForgedSharesDontCount) {
  std::vector<AttestationShare> shares;
  shares.push_back(attestor_.sign(0, 100));
  shares.push_back(attestor_.sign(1, 100));
  AttestationShare forged{2, 100, Digest{}};  // zero tag
  shares.push_back(forged);
  EXPECT_FALSE(attestor_.try_assemble(shares, 3).has_value());
}

TEST_F(CertificateTest, MixedValuesPickTheQuorum) {
  std::vector<AttestationShare> shares;
  shares.push_back(attestor_.sign(0, 100));
  shares.push_back(attestor_.sign(1, 101));
  shares.push_back(attestor_.sign(2, 101));
  shares.push_back(attestor_.sign(3, 101));
  auto cert = attestor_.try_assemble(shares, 3);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->value_index, 101);
  EXPECT_EQ(cert->shares.size(), 3u);  // succinct: exactly threshold
}

TEST_F(CertificateTest, CertificateVerifyRejectsMixedValues) {
  Certificate cert;
  cert.value_index = 100;
  cert.shares.push_back(attestor_.sign(0, 100));
  cert.shares.push_back(attestor_.sign(1, 101));  // wrong value inside
  cert.shares.push_back(attestor_.sign(2, 100));
  EXPECT_FALSE(attestor_.verify(cert, 3));
}

}  // namespace
}  // namespace delphi::crypto
