#pragma once
/// \file dolev.hpp
/// Dolev–Lynch–Pinter–Stark–Weihl asynchronous approximate agreement
/// (JACM '86) — the *first* asynchronous AAA protocol and the historical
/// baseline the paper cites as [24] (§III-A, §VII). Resilience n >= 5t + 1
/// (sub-optimal; Abraham et al. later achieved 3t + 1 by adding RBC), but in
/// exchange the protocol is pure multicast: O(n²) messages of O(ℓ) bits per
/// round and no broadcast primitive at all.
///
/// Round structure (asynchronous version, op. cit. §5):
///  1. multicast <round, estimate>;
///  2. wait for n - t round-r values (honest nodes alone eventually supply
///     them, so no helper/relay mechanism is needed for a fixed round count);
///  3. trim the t lowest and t highest of the collected multiset; because at
///     most t values are Byzantine, every survivor is bracketed by honest
///     values, so the trimmed multiset lies inside the honest range;
///  4. new estimate := midpoint of the trimmed multiset.
///
/// With n >= 5t + 1 the honest range contracts by at least 1/2 per round
/// (ibid., Lemma 3 adapted to the midpoint update), so
/// ceil(log2(delta/eps)) rounds give eps-agreement with *strict* convex
/// validity — the same guarantee as Abraham et al. at a stronger resilience
/// requirement. The ablation bench `ablation_resilience` quantifies the
/// three-way trade (Dolev 5t+1 multicast / Abraham 3t+1 RBC / Delphi 3t+1
/// relaxed validity).

#include <optional>
#include <vector>

#include "net/message.hpp"
#include "net/protocol.hpp"

namespace delphi::dolev {

/// <round, estimate> multicast payload.
class RoundValueMessage final : public net::MessageBody {
 public:
  RoundValueMessage(std::uint32_t round, double value)
      : round_(round), value_(value) {}

  std::uint32_t round() const noexcept { return round_; }
  double value() const noexcept { return value_; }

  std::size_t wire_size() const override {
    return uvarint_size(round_) + 8;
  }
  void serialize(ByteWriter& w) const override {
    w.uvarint(round_);
    w.f64(value_);
  }
  static std::shared_ptr<const RoundValueMessage> decode(ByteReader& r);

 private:
  std::uint32_t round_;
  double value_;
};

/// One node of the Dolev et al. protocol. Implements RestartableProtocol —
/// the churn plane snapshots a node at shutdown and restores it into a
/// factory-fresh instance at rejoin (the reference implementation of the
/// checkpoint/restore hook; see net/protocol.hpp).
class DolevProtocol final : public net::Protocol,
                            public net::ValueOutput,
                            public net::RestartableProtocol {
 public:
  struct Config {
    std::size_t n = 6;
    /// Fault bound; construction rejects n < 5t + 1.
    std::size_t t = 1;
    /// Rounds to run: use rounds_for(delta, eps).
    std::uint32_t rounds = 10;
    /// Input-space sanity bounds for Byzantine value filtering.
    double space_min = -1e18;
    double space_max = 1e18;
  };

  /// ceil(log2(delta/eps)) — the halving-based round budget (>= 1).
  static std::uint32_t rounds_for(double delta, double eps);

  /// Largest t tolerated at system size n (n >= 5t + 1).
  static constexpr std::size_t max_faults_5t(std::size_t n) noexcept {
    return (n - 1) / 5;
  }

  DolevProtocol(Config cfg, double input);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return output_.has_value(); }
  std::optional<double> output_value() const override { return output_; }

  void snapshot(ByteWriter& w) const override;
  void restore(ByteReader& r) override;

  /// Current estimate (equals the output once terminated).
  double estimate() const noexcept { return estimate_; }
  /// Round the node is currently collecting values for (0-based).
  std::uint32_t round() const noexcept { return round_; }

  const Config& config() const noexcept { return cfg_; }

 private:
  struct Round {
    /// First valid value per sender (later duplicates are ignored).
    std::vector<std::optional<double>> values;
    std::size_t count = 0;
  };

  /// Advance through every round already satisfied by buffered messages.
  void advance_while_ready(net::Context& ctx);

  Config cfg_;
  double estimate_;
  std::uint32_t round_ = 0;
  std::vector<Round> rounds_state_;
  std::optional<double> output_;
};

}  // namespace delphi::dolev
