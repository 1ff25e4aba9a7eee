#pragma once
/// \file certificate.hpp
/// Threshold attestation certificates for DORA-style oracle output.
///
/// The paper's DORA extension has each node sign its rounded Delphi output
/// and aggregate t+1 signatures into a succinct certificate (BLS in the
/// paper). README.md "Substitutions": per-node HMAC tags; a certificate is a
/// value plus t+1 distinct valid node tags. Unforgeability against our
/// simulated adversary and the t+1 threshold logic — the properties DORA
/// actually relies on — are identical; signature compute/size costs are
/// charged through the simulator's cost model instead.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "crypto/hmac.hpp"

namespace delphi::crypto {

/// A single node's endorsement of an attested value.
struct AttestationShare {
  NodeId signer = kInvalidNode;
  /// The attested value, already rounded to a multiple of epsilon and
  /// re-scaled to an integer grid index (exact comparison, no float fuzz).
  std::int64_t value_index = 0;
  Digest tag{};

  bool operator==(const AttestationShare&) const = default;
};

/// A quorum certificate: one value plus >= threshold distinct valid shares.
struct Certificate {
  std::int64_t value_index = 0;
  std::vector<AttestationShare> shares;
};

/// Creates and verifies attestation shares/certificates against a KeyStore.
class Attestor {
 public:
  /// \param keys       key material for all n nodes.
  /// \param session_id domain separator so tags from different protocol runs
  ///                   cannot be replayed across sessions.
  Attestor(const KeyStore& keys, std::uint64_t session_id) noexcept
      : keys_(&keys), session_(session_id) {}

  /// Produce node `signer`'s share for `value_index`.
  AttestationShare sign(NodeId signer, std::int64_t value_index) const;

  /// Check a single share's tag.
  bool verify(const AttestationShare& share) const;

  /// Assemble a certificate from shares once `threshold` distinct valid
  /// signers endorse the same value; returns std::nullopt until then.
  /// Invalid or duplicate shares are ignored (adversarial input).
  std::optional<Certificate> try_assemble(
      const std::vector<AttestationShare>& shares, std::size_t threshold) const;

  /// Full certificate check: >= threshold distinct signers, all tags valid,
  /// all on the certificate's value.
  bool verify(const Certificate& cert, std::size_t threshold) const;

 private:
  Digest tag_for(NodeId signer, std::int64_t value_index) const;

  const KeyStore* keys_;
  std::uint64_t session_;
};

}  // namespace delphi::crypto
