#pragma once
/// \file aba.hpp
/// Signature-free asynchronous binary agreement in the style of Mostefaoui,
/// Moumen & Raynal (JACM'15), driven by a common coin — the per-slot decision
/// engine inside the FIN-style ACS baseline.
///
/// Per round r:
///   1. BV-broadcast of the round estimate (BVAL messages with t+1
///      amplification and 2t+1 acceptance into `bin_values`).
///   2. AUX exchange: broadcast one accepted value; wait for n-t AUX whose
///      values are all inside bin_values.
///   3. Toss the common coin c_r (charged to CPU per the cost model — this is
///      where the pairing bill of a real threshold coin shows up, see
///      crypto/coin.hpp).
///      If the AUX view is a single value b: est = b and decide b if b == c_r;
///      otherwise est = c_r.
/// Termination gadget: deciders broadcast FINISH(b); t+1 FINISH amplify,
/// 2t+1 FINISH terminate the instance.
///
/// Guarantees with n > 3t: Validity (unanimous input is the only possible
/// decision), Agreement, and expected-constant-round termination against an
/// adversary oblivious to the coin.

#include <map>
#include <optional>
#include <set>

#include "common/bitset.hpp"
#include "crypto/coin.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"

namespace delphi::aba {

/// Wire message for one ABA instance.
class AbaMessage final : public net::MessageBody {
 public:
  enum class Kind : std::uint8_t { kBval = 0, kAux = 1, kFinish = 2 };

  AbaMessage(Kind kind, std::uint32_t round, bool value)
      : kind_(kind), round_(round), value_(value) {}

  Kind kind() const noexcept { return kind_; }
  std::uint32_t round() const noexcept { return round_; }
  bool value() const noexcept { return value_; }

  std::size_t wire_size() const override;
  void serialize(ByteWriter& w) const override;
  static std::shared_ptr<const AbaMessage> decode(ByteReader& r);

 private:
  Kind kind_;
  std::uint32_t round_;
  bool value_;
};

/// One binary-agreement instance, embeddable in a larger protocol.
class AbaInstance {
 public:
  struct Config {
    std::size_t n = 4;
    std::size_t t = 1;
    /// Instance id mixed into the coin PRF (unique per ABA in a deployment).
    std::uint64_t instance_id = 0;
    std::uint32_t channel = 0;
    const crypto::CommonCoin* coin = nullptr;
    /// CPU charged per coin toss (models threshold-coin share crypto; the
    /// dominant real-world cost of coin-based protocols — §I of the paper).
    SimTime coin_compute_us = 0;
    /// Rounds after which we abort the run (the adversary cannot stall an
    /// oblivious-scheduler run this long; this is a test safety valve).
    std::uint32_t max_rounds = 64;
  };

  explicit AbaInstance(Config cfg);

  /// Provide this node's input and begin round 1.
  void start(net::Context& ctx, bool input);

  /// True once start() was called.
  bool started() const noexcept { return started_; }

  /// Feed a message addressed to this instance.
  void on_message(net::Context& ctx, NodeId from, const net::MessageBody& body);

  /// Decision state.
  bool decided() const noexcept { return decision_.has_value(); }
  bool decision() const;

  /// True once the FINISH quorum completed; the instance stops processing.
  bool terminated() const noexcept { return terminated_; }

  const Config& config() const noexcept { return cfg_; }

 private:
  struct RoundState {
    NodeBitset bval_senders[2];         // who sent BVAL(b)
    bool bval_broadcast[2] = {false, false};
    bool bin_values[2] = {false, false};
    bool aux_sent = false;
    NodeBitset aux_senders;             // first AUX per sender counts
    NodeBitset aux_votes[2];            // senders voting b
    bool done = false;                  // coin consumed, moved past round
    bool initialized = false;
  };

  RoundState& round_state(std::uint32_t r);
  void process_round(net::Context& ctx);
  void advance_to(net::Context& ctx, std::uint32_t r, bool est);
  void decide(net::Context& ctx, bool b);
  void on_finish(net::Context& ctx, NodeId from, bool b);

  Config cfg_;
  bool started_ = false;
  std::uint32_t round_ = 0;
  bool est_ = false;
  std::map<std::uint32_t, RoundState> rounds_;
  std::optional<bool> decision_;
  bool finish_sent_ = false;
  NodeBitset finish_senders_[2];
  bool terminated_ = false;
};

/// Standalone wrapper for tests: one node running a single ABA instance.
class AbaProtocol final : public net::Protocol {
 public:
  AbaProtocol(AbaInstance::Config cfg, bool input)
      : instance_(cfg), input_(input) {}

  void on_start(net::Context& ctx) override { instance_.start(ctx, input_); }
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override {
    DELPHI_REQUIRE(channel == instance_.config().channel,
                   "ABA: unexpected channel");
    instance_.on_message(ctx, from, body);
  }
  bool terminated() const override { return instance_.terminated(); }

  const AbaInstance& instance() const noexcept { return instance_; }

 private:
  AbaInstance instance_;
  bool input_;
};

}  // namespace delphi::aba
