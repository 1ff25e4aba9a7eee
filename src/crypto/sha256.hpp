#pragma once
/// \file sha256.hpp
/// From-scratch SHA-256 (FIPS 180-4). No external crypto dependency is
/// available offline, and the paper's implementation uses SHA-256-based HMACs
/// for its authenticated channels, so we carry our own.
///
/// The compression function is selected once at runtime: on x86-64 CPUs with
/// the SHA extensions the SHA-NI kernel runs (~10x the scalar code, the
/// dominant cost of every authenticated TCP frame); everywhere else the
/// portable scalar kernel is used. Both produce identical digests.

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace delphi::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update(bytes);
///   Digest d = h.finalize();
/// `finalize` may be called once; the object is then exhausted.
class Sha256 {
 public:
  Sha256() noexcept;

  /// Absorb more input.
  void update(std::span<const std::uint8_t> data) noexcept;

  /// Convenience overload for string literals / std::string.
  void update(std::string_view s) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  /// Pad, finish, and return the digest.
  Digest finalize() noexcept;

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// True when the runtime-selected compression kernel uses CPU SHA extensions
/// (benchmarks and logs report which path perf numbers were taken on).
bool sha256_hw_accelerated() noexcept;

/// One-shot hash of a byte span.
Digest sha256(std::span<const std::uint8_t> data) noexcept;

/// One-shot hash of a string.
Digest sha256(std::string_view s) noexcept;

/// Hex encoding of a digest (for tests and logs).
std::string to_hex(const Digest& d);

namespace detail {
/// The portable compression kernel: absorbs `nblocks` 64-byte blocks into
/// `state`. Sha256 runs the SHA-NI kernel instead where the CPU has one;
/// this declaration lets tests check the two give identical digests.
void compress_scalar(std::array<std::uint32_t, 8>& state,
                     const std::uint8_t* blocks, std::size_t nblocks) noexcept;
}  // namespace detail

}  // namespace delphi::crypto
