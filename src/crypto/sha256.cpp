#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DELPHI_SHA256_X86 1
#include <immintrin.h>
#endif

namespace delphi::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

/// Compress `nblocks` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks,
                            std::size_t nblocks) noexcept;

}  // namespace

void detail::compress_scalar(std::array<std::uint32_t, 8>& state,
                             const std::uint8_t* blocks,
                             std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

namespace {

#ifdef DELPHI_SHA256_X86

/// SHA-NI kernel (the standard two-lane ABEF/CDGH flow; see FIPS 180-4 and
/// the Intel SHA extensions reference). Bit-identical to compress_scalar.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
    std::size_t nblocks) noexcept {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Repack a,b,...,h into the ABEF / CDGH lane order the instructions use.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);    // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);         // CDGH

  const auto k4 = [](int i) {
    return _mm_set_epi32(static_cast<int>(kK[i + 3]),
                         static_cast<int>(kK[i + 2]),
                         static_cast<int>(kK[i + 1]),
                         static_cast<int>(kK[i]));
  };

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg, msgtmp;

    // Rounds 0-3.
    __m128i msg0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 0));
    msg0 = _mm_shuffle_epi8(msg0, kShuffle);
    msg = _mm_add_epi32(msg0, k4(0));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7.
    __m128i msg1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuffle);
    msg = _mm_add_epi32(msg1, k4(4));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11.
    __m128i msg2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuffle);
    msg = _mm_add_epi32(msg2, k4(8));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15.
    __m128i msg3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuffle);
    msg = _mm_add_epi32(msg3, k4(12));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-51: the schedule pipeline in steady state, msg0..msg3
    // rotating through the four roles every four rounds.
    for (int i = 16; i < 52; i += 16) {
      msg = _mm_add_epi32(msg0, k4(i));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
      msg1 = _mm_add_epi32(msg1, msgtmp);
      msg1 = _mm_sha256msg2_epu32(msg1, msg0);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg3 = _mm_sha256msg1_epu32(msg3, msg0);

      if (i + 4 >= 52) break;
      msg = _mm_add_epi32(msg1, k4(i + 4));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
      msg2 = _mm_add_epi32(msg2, msgtmp);
      msg2 = _mm_sha256msg2_epu32(msg2, msg1);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg0 = _mm_sha256msg1_epu32(msg0, msg1);

      msg = _mm_add_epi32(msg2, k4(i + 8));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
      msg3 = _mm_add_epi32(msg3, msgtmp);
      msg3 = _mm_sha256msg2_epu32(msg3, msg2);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg1 = _mm_sha256msg1_epu32(msg1, msg2);

      msg = _mm_add_epi32(msg3, k4(i + 12));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
      msg0 = _mm_add_epi32(msg0, msgtmp);
      msg0 = _mm_sha256msg2_epu32(msg0, msg3);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg2 = _mm_sha256msg1_epu32(msg2, msg3);
    }

    // Rounds 52-55 (schedule for w[56..63] still completing).
    msg = _mm_add_epi32(msg1, k4(52));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59.
    msg = _mm_add_epi32(msg2, k4(56));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63.
    msg = _mm_add_epi32(msg3, k4(60));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  // Repack ABEF / CDGH back to a,b,...,h.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#endif  // DELPHI_SHA256_X86

CompressFn select_compress() noexcept {
#ifdef DELPHI_SHA256_X86
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return compress_shani;
  }
#endif
  return detail::compress_scalar;
}

CompressFn compress_fn() noexcept {
  static const CompressFn fn = select_compress();
  return fn;
}

}  // namespace

bool sha256_hw_accelerated() noexcept {
  return compress_fn() != detail::compress_scalar;
}

Sha256::Sha256() noexcept
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
         0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buf_{} {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  const CompressFn compress = compress_fn();
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      compress(h_, buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const std::size_t full = (data.size() - off) / 64;
  if (full > 0) {
    compress(h_, data.data() + off, full);
    off += full * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 8-byte big-endian bit length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  update(std::span<const std::uint8_t>(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  // `update` above may have adjusted total_len_, but padding math is done.
  total_len_ -= pad_len;  // keep the recorded length equal to the true input
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256(std::string_view s) noexcept {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

std::string to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (auto b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace delphi::crypto
