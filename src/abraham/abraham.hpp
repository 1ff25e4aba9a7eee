#pragma once
/// \file abraham.hpp
/// Abraham–Amit–Dolev asynchronous approximate agreement (OPODIS'04) — the
/// best prior AAA protocol and the paper's second baseline (Fig 6). Optimal
/// resilience n = 3t+1, O(n³) bits per round (the bottleneck Delphi removes,
/// §III-A), O(log(delta/eps)) rounds.
///
/// Round structure:
///  1. every node reliably broadcasts its current estimate (n parallel
///     Bracha RBCs — equivocation prevention is what forces RBC here);
///  2. after RBC-delivering n-t estimates, broadcast a WITNESS message
///     listing the senders seen;
///  3. wait for n-t witnesses whose entire lists are locally delivered —
///     this guarantees any two honest nodes share >= 2t+1 common values;
///  4. new estimate := midpoint of the t-trimmed value multiset. The honest
///     range at least halves per round.
/// After `rounds` = ceil(log2(delta/eps)) rounds the estimate is the output:
/// eps-agreement with *strict* convex validity [m, M] (Table I row).

#include <optional>
#include <vector>

#include "common/bitset.hpp"
#include "net/protocol.hpp"
#include "rbc/rbc.hpp"

namespace delphi::abraham {

/// WITNESS message: the sender's list of RBC-delivered origins for a round.
class WitnessMessage final : public net::MessageBody {
 public:
  WitnessMessage(std::uint32_t round, std::vector<NodeId> ids)
      : round_(round), ids_(std::move(ids)) {}

  std::uint32_t round() const noexcept { return round_; }
  const std::vector<NodeId>& ids() const noexcept { return ids_; }

  std::size_t wire_size() const override;
  void serialize(ByteWriter& w) const override;
  static std::shared_ptr<const WitnessMessage> decode(ByteReader& r);

 private:
  std::uint32_t round_;
  std::vector<NodeId> ids_;
};

/// One node of the Abraham et al. protocol.
class AbrahamProtocol final : public net::Protocol, public net::ValueOutput {
 public:
  struct Config {
    std::size_t n = 4;
    std::size_t t = 1;
    /// Rounds to run: ceil(log2(delta/eps)) (+1 margin is conventional).
    std::uint32_t rounds = 10;
    /// Input-space sanity bounds for Byzantine value filtering.
    double space_min = -1e18;
    double space_max = 1e18;
  };

  AbrahamProtocol(Config cfg, double input);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return output_.has_value(); }
  std::optional<double> output_value() const override { return output_; }

  /// Current estimate (the output once terminated).
  double estimate() const noexcept { return estimate_; }

  const Config& config() const noexcept { return cfg_; }

 private:
  struct RoundCtx {
    std::vector<rbc::RbcInstance> rbcs;
    std::vector<std::optional<double>> values;
    std::size_t delivered = 0;
    bool witness_sent = false;
    /// witness_lists[j] = j's reported id set (first valid WITNESS per
    /// sender), stored as a bitset: O(n/8) bytes instead of O(n) ids.
    std::vector<std::optional<NodeBitset>> witness_lists;
    /// Incremental satisfaction tracking (keeps per-delivery work O(1)-ish
    /// instead of rescanning all witnesses on every message):
    /// number of ids each pending witness still waits for...
    std::vector<std::size_t> witness_missing;
    /// ...and, per value id, the witnesses waiting on it.
    std::vector<std::vector<NodeId>> waiters;
    std::size_t satisfied = 0;
    NodeBitset in_union;
    bool advanced = false;
  };

  /// Handle a fresh RBC delivery in (round, slot).
  void on_value_delivered(RoundCtx& rc, NodeId slot);
  /// Handle an accepted witness list from j.
  void on_witness_accepted(RoundCtx& rc, NodeId j);

  std::uint32_t channel_round(std::uint32_t channel) const {
    return channel / (static_cast<std::uint32_t>(cfg_.n) + 1);
  }
  std::uint32_t channel_slot(std::uint32_t channel) const {
    return channel % (static_cast<std::uint32_t>(cfg_.n) + 1);
  }
  std::uint32_t rbc_channel(std::uint32_t round, NodeId j) const {
    return round * (static_cast<std::uint32_t>(cfg_.n) + 1) + j;
  }
  std::uint32_t witness_channel(std::uint32_t round) const {
    return round * (static_cast<std::uint32_t>(cfg_.n) + 1) +
           static_cast<std::uint32_t>(cfg_.n);
  }

  RoundCtx& round_ctx(std::uint32_t round);
  void begin_round(net::Context& ctx);
  void check_progress(net::Context& ctx);

  Config cfg_;
  double estimate_;
  std::uint32_t round_ = 0;  // 0-based current round
  std::vector<RoundCtx> rounds_state_;
  std::optional<double> output_;
};

}  // namespace delphi::abraham
