#pragma once
/// \file hmac.hpp
/// HMAC-SHA256 (RFC 2104) plus the project's authenticated-channel helpers.
///
/// The paper implements pairwise authenticated channels with HMAC-SHA256 over
/// shared symmetric keys; we do the same. A KeyStore derives the pairwise key
/// for (i, j) from a master secret so that tests and the TCP transport agree
/// on keys without a key-exchange phase (the paper likewise assumes keys are
/// pre-shared).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace delphi::crypto {

/// A symmetric key. 32 bytes everywhere in this project.
using Key = std::array<std::uint8_t, 32>;

/// HMAC-SHA256 of `data` under `key` (key may be any length).
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> data) noexcept;

/// Overload taking the project Key type.
Digest hmac_sha256(const Key& key, std::span<const std::uint8_t> data) noexcept;

/// Constant-time digest comparison (Core Guidelines-style: no early exit on
/// secret-dependent data).
bool digest_equal(const Digest& a, const Digest& b) noexcept;

/// Size in bytes of the authentication tag appended to every wire message.
inline constexpr std::size_t kMacTagSize = 32;

/// Precomputed HMAC-SHA256 state for one key: the ipad/opad SHA-256
/// midstates are derived once at construction, so each tag() costs two
/// compression-function finishes instead of a full key schedule plus two
/// pad absorptions per MAC. This is the per-link authentication state the
/// TCP data plane keeps per connection (one HMAC key schedule per link
/// lifetime, not per frame). Produces tags identical to hmac_sha256().
class HmacKey {
 public:
  explicit HmacKey(const Key& key);
  explicit HmacKey(std::span<const std::uint8_t> key);

  /// HMAC-SHA256 tag over `data`.
  Digest tag(std::span<const std::uint8_t> data) const noexcept;

  /// Tag over the concatenation a || b without materializing it — for
  /// callers whose MAC input lives in two discontiguous buffers. (The frame
  /// codec itself MACs one contiguous span: channel + payload are adjacent
  /// in the encoded body.)
  Digest tag(std::span<const std::uint8_t> a,
             std::span<const std::uint8_t> b) const noexcept;

 private:
  Sha256 inner_;  ///< midstate after absorbing key ^ ipad
  Sha256 outer_;  ///< midstate after absorbing key ^ opad
};

/// Derives and caches pairwise channel keys and per-node signing keys from a
/// master secret. Symmetric: key(i, j) == key(j, i).
class KeyStore {
 public:
  /// \param master  master secret shared by the deployment (simulation-only;
  ///                a real deployment would provision pairwise keys).
  /// \param n       number of nodes.
  KeyStore(std::uint64_t master, std::size_t n);

  /// Pairwise channel key for the unordered pair {i, j}.
  const Key& channel_key(NodeId i, NodeId j) const;

  /// Per-node key used for DORA attestation tags (known to the verifier set;
  /// stands in for a BLS signing key — see README.md "Substitutions").
  const Key& node_key(NodeId i) const;

  /// Number of nodes the store was built for.
  std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_;
  std::vector<Key> pair_keys_;   // triangular matrix, row-major
  std::vector<Key> node_keys_;

  std::size_t pair_index(NodeId i, NodeId j) const;
};

}  // namespace delphi::crypto
