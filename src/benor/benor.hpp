#pragma once
/// \file benor.hpp
/// Ben-Or's classic randomized asynchronous binary agreement with *local*
/// coins (PODC '83) — the information-theoretic end of the design space the
/// paper's Table I spans with its WaterBear row: no signatures, no threshold
/// setup, no common coin, at the price of expected-exponential round
/// complexity when honest inputs are split (and 5t+1 resilience for this
/// classic variant).
///
/// Per round r (n >= 5t + 1):
///   Phase 1 (report):  broadcast <R, r, est>; collect n - t reports.
///                      If more than (n + t)/2 carry the same v, propose v,
///                      else propose ⊥.
///   Phase 2 (propose): broadcast <P, r, proposal>; collect n - t proposals.
///                      If more than (n + t)/2 carry the same v ≠ ⊥ → decide v.
///                      If at least t + 1 carry v ≠ ⊥            → est = v.
///                      Otherwise                                → est = local
///                      random bit.
/// Termination gadget (as in aba/): deciders broadcast FINISH(b); t + 1
/// FINISH(b) amplify, 2t + 1 terminate the instance.
///
/// Guarantees: Validity and Agreement always (the thresholds make two
/// different phase-2 decisions impossible and a decision sticky); Termination
/// with probability 1 — one round after any honest decision everyone decides,
/// and when nobody decides, each round ends with all-equal estimates with
/// probability >= 2^-(n-t) (the local coins happen to align). Compare
/// aba/aba.hpp (MMR + common coin): expected O(1) rounds, but every round
/// tosses a coin whose real-world implementation costs O(n) pairings.

#include <map>
#include <optional>

#include "common/bitset.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"

namespace delphi::benor {

/// Phase-2 "no proposal" marker.
inline constexpr std::uint8_t kBottom = 2;

/// Wire message for one Ben-Or instance.
class BenOrMessage final : public net::MessageBody {
 public:
  enum class Kind : std::uint8_t { kReport = 0, kPropose = 1, kFinish = 2 };

  /// `value` is 0/1 for reports and finishes, 0/1/kBottom for proposals.
  BenOrMessage(Kind kind, std::uint32_t round, std::uint8_t value)
      : kind_(kind), round_(round), value_(value) {}

  Kind kind() const noexcept { return kind_; }
  std::uint32_t round() const noexcept { return round_; }
  std::uint8_t value() const noexcept { return value_; }

  std::size_t wire_size() const override;
  void serialize(ByteWriter& w) const override;
  static std::shared_ptr<const BenOrMessage> decode(ByteReader& r);

 private:
  Kind kind_;
  std::uint32_t round_;
  std::uint8_t value_;
};

/// One node of Ben-Or binary agreement.
class BenOrProtocol final : public net::Protocol, public net::ValueOutput {
 public:
  struct Config {
    std::size_t n = 6;
    /// Fault bound; construction rejects n < 5t + 1.
    std::size_t t = 1;
    std::uint32_t channel = 0;
    /// Abort the run past this many rounds (probabilistic-termination test
    /// safety valve; the expected round count at matched inputs is 1).
    std::uint32_t max_rounds = 4096;
  };

  BenOrProtocol(Config cfg, bool input);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return terminated_; }

  /// 0.0 or 1.0 once terminated.
  std::optional<double> output_value() const override;

  /// Decision state (set at the decide rule; termination needs the FINISH
  /// quorum on top).
  bool decided() const noexcept { return decision_.has_value(); }

  /// Rounds consumed so far (diagnostics / the local-coin bench).
  std::uint32_t rounds_used() const noexcept { return round_; }

  const Config& config() const noexcept { return cfg_; }

 private:
  struct RoundState {
    explicit RoundState(std::size_t n)
        : report_senders(n), propose_senders(n) {}
    NodeBitset report_senders;
    std::size_t report_count[2] = {0, 0};
    bool proposal_sent = false;
    NodeBitset propose_senders;
    std::size_t propose_count[3] = {0, 0, 0};  // 0 / 1 / kBottom
    bool advanced = false;
  };

  RoundState& round_state(std::uint32_t r);
  void begin_round(net::Context& ctx);
  void try_propose(net::Context& ctx, RoundState& rs);
  void try_advance(net::Context& ctx, RoundState& rs);
  void decide(net::Context& ctx, bool b);
  void on_finish(net::Context& ctx, NodeId from, bool b);

  Config cfg_;
  bool est_;
  std::uint32_t round_ = 0;  // 1-based once started
  std::map<std::uint32_t, RoundState> rounds_;
  std::optional<bool> decision_;
  bool finish_sent_ = false;
  NodeBitset finish_senders_[2] = {NodeBitset(0), NodeBitset(0)};
  bool terminated_ = false;
};

}  // namespace delphi::benor
