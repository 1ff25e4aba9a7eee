#pragma once
/// \file coin.hpp
/// Common coin, simulated with a PRF.
///
/// FIN's ABA instances consume threshold-cryptographic common coins (the
/// paper: "the most efficient implementation of a common coin requires O(n)
/// bilinear pairing computations per coin"). Building pairing-based threshold
/// crypto is out of scope offline; we substitute a keyed PRF that every
/// node evaluates identically (README.md "Substitutions"):
///
///     coin(instance, round) = HMAC(seed, instance || round) mod 2
///
/// Agreement-relevant properties are preserved — the coin is *common* (all
/// nodes compute the same bit) and *unpredictable to our simulated adversary*
/// (adversary strategies never evaluate the PRF). The real coin's dominant
/// cost — CPU time — is modeled explicitly: callers charge
/// `CoinCostModel::cost_us` to the node's busy-time when tossing a coin, so
/// benchmark shapes (FIN's compute-heaviness on weak devices) survive the
/// substitution.

#include <cstdint>
#include <string>

#include "crypto/hmac.hpp"

namespace delphi::crypto {

/// Deterministic common-coin source shared by all nodes of a deployment.
class CommonCoin {
 public:
  /// \param seed  deployment-wide coin seed (output of the "DKG" we do not
  ///              run; all honest nodes hold it).
  explicit CommonCoin(std::uint64_t seed) noexcept : seed_(seed) {}

  /// The common bit for (instance, round). Every node computes the same
  /// value.
  bool toss(std::uint64_t instance, std::uint32_t round) const noexcept;

  /// A common uniform value in [0, bound) — used for FIN-style proposal
  /// election.
  std::uint64_t value(std::uint64_t instance, std::uint32_t round,
                      std::uint64_t bound) const noexcept;

 private:
  std::uint64_t prf(std::uint64_t instance, std::uint32_t round) const noexcept;

  std::uint64_t seed_;
};

}  // namespace delphi::crypto
