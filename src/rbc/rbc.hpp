#pragma once
/// \file rbc.hpp
/// Bracha reliable broadcast (SEND / ECHO / READY), the substrate both
/// baselines need: Abraham et al. uses one RBC per node per round to prevent
/// equivocation at n = 3t+1 (§III-A — this is precisely where the paper
/// locates the O(n³) bottleneck Delphi removes), and the FIN-style ACS
/// disseminates inputs through n parallel RBCs.
///
/// Guarantees with n > 3t:
///  * Validity    — if the broadcaster is honest, every honest node delivers
///                  its value.
///  * Agreement   — no two honest nodes deliver different values.
///  * Totality    — if one honest node delivers, every honest node delivers.

#include <optional>
#include <vector>

#include "common/bitset.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"

namespace delphi::rbc {

/// Wire message for one RBC instance (kind + opaque payload).
class RbcMessage final : public net::MessageBody {
 public:
  enum class Kind : std::uint8_t { kSend = 0, kEcho = 1, kReady = 2 };

  RbcMessage(Kind kind, std::vector<std::uint8_t> payload)
      : kind_(kind), payload_(std::move(payload)) {}

  Kind kind() const noexcept { return kind_; }
  const std::vector<std::uint8_t>& payload() const noexcept { return payload_; }

  std::size_t wire_size() const override;
  void serialize(ByteWriter& w) const override;

  /// Decode (throws SerializationError / ProtocolViolation on bad input).
  static std::shared_ptr<const RbcMessage> decode(ByteReader& r);

 private:
  Kind kind_;
  std::vector<std::uint8_t> payload_;
};

/// One broadcast instance, embeddable in a larger protocol. The owner routes
/// messages for this instance's channel into `on_message` and forwards a
/// Context; the instance sends on its configured channel.
class RbcInstance {
 public:
  struct Config {
    std::size_t n = 4;
    std::size_t t = 1;
    NodeId broadcaster = 0;
    std::uint32_t channel = 0;
    /// Cap accepted payload size; bigger frames are Byzantine spam.
    std::size_t max_payload = 1 << 20;
  };

  explicit RbcInstance(Config cfg);

  /// Called by the broadcaster to disseminate `payload`.
  void start(net::Context& ctx, std::vector<std::uint8_t> payload);

  /// Feed a message addressed to this instance.
  void on_message(net::Context& ctx, NodeId from, const net::MessageBody& body);

  /// True once this node delivered the broadcast value.
  bool delivered() const noexcept { return delivered_.has_value(); }

  /// The delivered value (valid once delivered()).
  const std::vector<std::uint8_t>& value() const;

  const Config& config() const noexcept { return cfg_; }

 private:
  void maybe_echo(net::Context& ctx, const std::vector<std::uint8_t>& v);
  void maybe_ready(net::Context& ctx);
  void maybe_deliver();

  /// Senders supporting one payload.
  struct PayloadVotes {
    std::vector<std::uint8_t> payload;
    NodeBitset senders;
  };

  PayloadVotes& votes_for(std::vector<PayloadVotes>& votes,
                          const std::vector<std::uint8_t>& payload);

  Config cfg_;
  /// First-received SEND payload from the broadcaster.
  std::optional<std::vector<std::uint8_t>> send_value_;
  /// Senders counted once per message kind (Byzantine double-votes ignored).
  std::vector<PayloadVotes> echoes_;
  std::vector<PayloadVotes> readies_;
  NodeBitset echo_senders_;
  NodeBitset ready_senders_;
  bool sent_echo_ = false;
  bool sent_ready_ = false;
  std::optional<std::vector<std::uint8_t>> delivered_;
};

/// Standalone net::Protocol wrapper around a single RbcInstance — used by the
/// RBC unit/property tests and the quickstart example.
class RbcProtocol final : public net::Protocol {
 public:
  /// \param input  payload to broadcast when this node is the broadcaster.
  RbcProtocol(RbcInstance::Config cfg, std::vector<std::uint8_t> input = {});

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return instance_.delivered(); }

  const RbcInstance& instance() const noexcept { return instance_; }

 private:
  RbcInstance instance_;
  std::vector<std::uint8_t> input_;
};

}  // namespace delphi::rbc
