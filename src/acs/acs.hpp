#pragma once
/// \file acs.hpp
/// Asynchronous Common Subset and the convex-BA adapter built on it — the
/// repo's stand-in for FIN [27], the state-of-the-art ACS the paper
/// benchmarks against (Fig 6).
///
/// Construction (BKR-style; README.md "Substitutions": a faithful cost
/// stand-in for FIN): every node reliably broadcasts its input (n parallel
/// Bracha RBCs), one binary-agreement instance per slot decides inclusion,
/// and once n-t slots decided 1 the node inputs 0 to the rest. The agreed
/// subset S has |S| >= n-t >= 2t+1, so the *median* of the delivered values
/// in S lies inside the honest input range — exact convex validity, the
/// property column the paper gives FIN in Table I.
///
/// Costs (matching Table I's FIN row shapes): O(ln² + n³) bits from n RBCs of
/// l-bit values plus n ABAs, constant expected rounds, and coin compute
/// charged per toss (the CPU term that dominates on the CPS testbed).

#include <map>
#include <optional>
#include <vector>

#include "aba/aba.hpp"
#include "crypto/coin.hpp"
#include "net/protocol.hpp"
#include "rbc/rbc.hpp"

namespace delphi::acs {

/// One node of the ACS-median convex-BA protocol.
class AcsProtocol final : public net::Protocol, public net::ValueOutput {
 public:
  struct Config {
    std::size_t n = 4;
    std::size_t t = 1;
    /// Coin source shared by the deployment.
    const crypto::CommonCoin* coin = nullptr;
    /// CPU per coin toss (threshold-crypto stand-in; see crypto/coin.hpp).
    SimTime coin_compute_us = 0;
    /// Session id separating coin streams of concurrent ACS runs.
    std::uint64_t session = 0;
  };

  /// \param input this node's real-valued oracle input.
  AcsProtocol(Config cfg, double input);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return output_.has_value(); }

  /// Median of the agreed subset, once terminated.
  std::optional<double> output_value() const override { return output_; }

  /// The agreed subset (node ids whose ABA decided 1), once terminated.
  const std::vector<NodeId>& agreed_subset() const { return subset_; }

  const Config& config() const noexcept { return cfg_; }

 private:
  /// Channel layout: [0, n) RBC slots, [n, 2n) ABA slots.
  std::uint32_t rbc_channel(NodeId j) const { return j; }
  std::uint32_t aba_channel(NodeId j) const {
    return static_cast<std::uint32_t>(cfg_.n) + j;
  }

  void after_delivery(net::Context& ctx);
  void maybe_finish();

  Config cfg_;
  double input_;
  std::vector<rbc::RbcInstance> rbcs_;
  std::vector<aba::AbaInstance> abas_;
  std::vector<bool> aba_input_given_;
  std::vector<std::optional<double>> values_;
  std::size_t decided_count_ = 0;
  std::size_t ones_count_ = 0;
  bool zero_fill_done_ = false;
  std::vector<NodeId> subset_;
  std::optional<double> output_;
};

/// Encode an oracle value as an RBC payload (8-byte IEEE-754).
std::vector<std::uint8_t> encode_value(double v);

/// Decode an RBC payload back to a value; throws on bad size / non-finite.
double decode_value(const std::vector<std::uint8_t>& payload);

}  // namespace delphi::acs
