#include "rbc/rbc.hpp"

#include "common/error.hpp"

namespace delphi::rbc {

// -------------------------------------------------------------- RbcMessage --

std::size_t RbcMessage::wire_size() const {
  return 1 + uvarint_size(payload_.size()) + payload_.size();
}

void RbcMessage::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  w.bytes(payload_);
}

std::shared_ptr<const RbcMessage> RbcMessage::decode(ByteReader& r) {
  const std::uint8_t k = r.u8();
  DELPHI_REQUIRE(k <= 2, "RBC: unknown message kind");
  auto payload = r.bytes();
  return std::make_shared<RbcMessage>(static_cast<Kind>(k),
                                      std::move(payload));
}

// ------------------------------------------------------------- RbcInstance --

RbcInstance::RbcInstance(Config cfg)
    : cfg_(cfg), echo_senders_(cfg.n), ready_senders_(cfg.n) {
  DELPHI_ASSERT(cfg_.n > 3 * cfg_.t, "RBC requires n > 3t");
  DELPHI_ASSERT(cfg_.broadcaster < cfg_.n, "RBC: bad broadcaster id");
}

RbcInstance::PayloadVotes& RbcInstance::votes_for(
    std::vector<PayloadVotes>& votes, const std::vector<std::uint8_t>& payload) {
  for (auto& v : votes) {
    if (v.payload == payload) return v;
  }
  votes.push_back(PayloadVotes{payload, NodeBitset(cfg_.n)});
  return votes.back();
}

void RbcInstance::start(net::Context& ctx, std::vector<std::uint8_t> payload) {
  DELPHI_ASSERT(ctx.self() == cfg_.broadcaster, "only broadcaster starts RBC");
  ctx.broadcast(cfg_.channel, std::make_shared<RbcMessage>(
                                  RbcMessage::Kind::kSend, std::move(payload)));
}

void RbcInstance::on_message(net::Context& ctx, NodeId from,
                             const net::MessageBody& body) {
  const auto* msg = dynamic_cast<const RbcMessage*>(&body);
  DELPHI_REQUIRE(msg != nullptr, "RBC: foreign message type");
  DELPHI_REQUIRE(msg->payload().size() <= cfg_.max_payload,
                 "RBC: oversized payload");

  switch (msg->kind()) {
    case RbcMessage::Kind::kSend: {
      // Only the designated broadcaster may SEND; first SEND wins.
      if (from != cfg_.broadcaster || send_value_.has_value()) return;
      send_value_ = msg->payload();
      maybe_echo(ctx, *send_value_);
      break;
    }
    case RbcMessage::Kind::kEcho: {
      // Count at most one ECHO per sender (whatever the value).
      if (!echo_senders_.insert(from)) return;
      votes_for(echoes_, msg->payload()).senders.insert(from);
      maybe_ready(ctx);
      break;
    }
    case RbcMessage::Kind::kReady: {
      if (!ready_senders_.insert(from)) return;
      votes_for(readies_, msg->payload()).senders.insert(from);
      maybe_ready(ctx);
      maybe_deliver();
      break;
    }
  }
}

void RbcInstance::maybe_echo(net::Context& ctx,
                             const std::vector<std::uint8_t>& v) {
  if (sent_echo_) return;
  sent_echo_ = true;
  ctx.broadcast(cfg_.channel,
                std::make_shared<RbcMessage>(RbcMessage::Kind::kEcho, v));
}

void RbcInstance::maybe_ready(net::Context& ctx) {
  if (sent_ready_) return;
  // Echo quorum: strictly more than (n + t) / 2 echoes for the same value.
  const std::size_t echo_quorum = (cfg_.n + cfg_.t) / 2 + 1;
  for (const auto& v : echoes_) {
    if (v.senders.count() >= echo_quorum) {
      sent_ready_ = true;
      ctx.broadcast(cfg_.channel, std::make_shared<RbcMessage>(
                                      RbcMessage::Kind::kReady, v.payload));
      return;
    }
  }
  // READY amplification: t + 1 READYs for a value let a node that missed the
  // echo quorum join in (this is what gives Totality).
  for (const auto& v : readies_) {
    if (v.senders.count() >= cfg_.t + 1) {
      sent_ready_ = true;
      ctx.broadcast(cfg_.channel, std::make_shared<RbcMessage>(
                                      RbcMessage::Kind::kReady, v.payload));
      return;
    }
  }
}

void RbcInstance::maybe_deliver() {
  if (delivered_) return;
  for (const auto& v : readies_) {
    if (v.senders.count() >= 2 * cfg_.t + 1) {
      delivered_ = v.payload;
      return;
    }
  }
}

const std::vector<std::uint8_t>& RbcInstance::value() const {
  DELPHI_ASSERT(delivered_.has_value(), "RBC value read before delivery");
  return *delivered_;
}

// ------------------------------------------------------------- RbcProtocol --

RbcProtocol::RbcProtocol(RbcInstance::Config cfg,
                         std::vector<std::uint8_t> input)
    : instance_(cfg), input_(std::move(input)) {}

void RbcProtocol::on_start(net::Context& ctx) {
  if (ctx.self() == instance_.config().broadcaster) {
    instance_.start(ctx, input_);
  }
}

void RbcProtocol::on_message(net::Context& ctx, NodeId from,
                             std::uint32_t channel,
                             const net::MessageBody& body) {
  DELPHI_REQUIRE(channel == instance_.config().channel,
                 "RBC: unexpected channel");
  instance_.on_message(ctx, from, body);
}

}  // namespace delphi::rbc
