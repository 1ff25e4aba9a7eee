#include "benor/benor.hpp"

#include "common/error.hpp"

namespace delphi::benor {

// ------------------------------------------------------------ BenOrMessage

std::size_t BenOrMessage::wire_size() const {
  return 1 + uvarint_size(round_) + 1;
}

void BenOrMessage::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  w.uvarint(round_);
  w.u8(value_);
}

std::shared_ptr<const BenOrMessage> BenOrMessage::decode(ByteReader& r) {
  const std::uint8_t kind = r.u8();
  DELPHI_REQUIRE(kind <= 2, "BenOr: bad message kind");
  const auto round = static_cast<std::uint32_t>(r.uvarint());
  const std::uint8_t value = r.u8();
  return std::make_shared<BenOrMessage>(static_cast<Kind>(kind), round,
                                        value);
}

// ----------------------------------------------------------- BenOrProtocol

BenOrProtocol::BenOrProtocol(Config cfg, bool input)
    : cfg_(cfg), est_(input) {
  if (cfg_.n < 5 * cfg_.t + 1) {
    throw ConfigError("Ben-Or requires n >= 5t + 1");
  }
  if (cfg_.max_rounds < 1) throw ConfigError("Ben-Or: max_rounds must be >= 1");
  finish_senders_[0] = NodeBitset(cfg_.n);
  finish_senders_[1] = NodeBitset(cfg_.n);
}

BenOrProtocol::RoundState& BenOrProtocol::round_state(std::uint32_t r) {
  auto it = rounds_.find(r);
  if (it == rounds_.end()) {
    it = rounds_.emplace(r, RoundState(cfg_.n)).first;
  }
  return it->second;
}

void BenOrProtocol::on_start(net::Context& ctx) {
  round_ = 1;
  begin_round(ctx);
}

void BenOrProtocol::begin_round(net::Context& ctx) {
  DELPHI_ASSERT(round_ <= cfg_.max_rounds, "Ben-Or: round budget exhausted");
  ctx.broadcast(cfg_.channel,
                std::make_shared<BenOrMessage>(BenOrMessage::Kind::kReport,
                                               round_, est_ ? 1 : 0));
}

void BenOrProtocol::on_message(net::Context& ctx, NodeId from,
                               std::uint32_t channel,
                               const net::MessageBody& body) {
  if (terminated_) return;
  DELPHI_REQUIRE(channel == cfg_.channel, "Ben-Or: unexpected channel");
  const auto* msg = dynamic_cast<const BenOrMessage*>(&body);
  DELPHI_REQUIRE(msg != nullptr, "Ben-Or: foreign message type");
  DELPHI_REQUIRE(msg->round() >= 1 && msg->round() <= cfg_.max_rounds,
                 "Ben-Or: round out of range");

  switch (msg->kind()) {
    case BenOrMessage::Kind::kReport: {
      DELPHI_REQUIRE(msg->value() <= 1, "Ben-Or: report value not binary");
      RoundState& rs = round_state(msg->round());
      if (!rs.report_senders.insert(from)) return;
      ++rs.report_count[msg->value()];
      if (msg->round() == round_) try_propose(ctx, rs);
      break;
    }
    case BenOrMessage::Kind::kPropose: {
      DELPHI_REQUIRE(msg->value() <= kBottom, "Ben-Or: bad proposal value");
      RoundState& rs = round_state(msg->round());
      if (!rs.propose_senders.insert(from)) return;
      ++rs.propose_count[msg->value()];
      if (msg->round() == round_) try_advance(ctx, rs);
      break;
    }
    case BenOrMessage::Kind::kFinish: {
      DELPHI_REQUIRE(msg->value() <= 1, "Ben-Or: finish value not binary");
      on_finish(ctx, from, msg->value() == 1);
      break;
    }
  }
}

void BenOrProtocol::try_propose(net::Context& ctx, RoundState& rs) {
  if (rs.proposal_sent) return;
  const std::size_t total = rs.report_count[0] + rs.report_count[1];
  if (total < quorum_size(cfg_.n, cfg_.t)) return;
  rs.proposal_sent = true;
  // Strict majority beyond the fault margin → safe to propose.
  const double bar = static_cast<double>(cfg_.n + cfg_.t) / 2.0;
  std::uint8_t proposal = kBottom;
  for (std::uint8_t v : {std::uint8_t{0}, std::uint8_t{1}}) {
    if (static_cast<double>(rs.report_count[v]) > bar) proposal = v;
  }
  ctx.broadcast(cfg_.channel,
                std::make_shared<BenOrMessage>(BenOrMessage::Kind::kPropose,
                                               round_, proposal));
  try_advance(ctx, rs);  // proposals may already be quorate
}

void BenOrProtocol::try_advance(net::Context& ctx, RoundState& rs) {
  if (rs.advanced || !rs.proposal_sent) return;
  const std::size_t total =
      rs.propose_count[0] + rs.propose_count[1] + rs.propose_count[kBottom];
  if (total < quorum_size(cfg_.n, cfg_.t)) return;
  rs.advanced = true;

  const double bar = static_cast<double>(cfg_.n + cfg_.t) / 2.0;
  std::optional<bool> decide_v;
  std::optional<bool> adopt_v;
  for (std::uint8_t v : {std::uint8_t{0}, std::uint8_t{1}}) {
    if (static_cast<double>(rs.propose_count[v]) > bar) decide_v = (v == 1);
    if (rs.propose_count[v] >= cfg_.t + 1) adopt_v = (v == 1);
  }
  if (decide_v) {
    est_ = *decide_v;
    decide(ctx, *decide_v);
    if (terminated_) return;
  } else if (adopt_v) {
    est_ = *adopt_v;
  } else {
    est_ = ctx.rng().below(2) == 1;  // the local coin
  }
  ++round_;
  begin_round(ctx);
  // Replay any buffered progress for the new round.
  RoundState& next = round_state(round_);
  try_propose(ctx, next);
}

void BenOrProtocol::decide(net::Context& ctx, bool b) {
  if (decision_.has_value()) {
    DELPHI_ASSERT(*decision_ == b, "Ben-Or: conflicting decisions");
    return;
  }
  decision_ = b;
  if (!finish_sent_) {
    finish_sent_ = true;
    ctx.broadcast(cfg_.channel,
                  std::make_shared<BenOrMessage>(BenOrMessage::Kind::kFinish,
                                                 round_, b ? 1 : 0));
  }
}

void BenOrProtocol::on_finish(net::Context& ctx, NodeId from, bool b) {
  if (!finish_senders_[b ? 1 : 0].insert(from)) return;
  const std::size_t cnt = finish_senders_[b ? 1 : 0].count();
  if (cnt >= cfg_.t + 1 && !finish_sent_) {
    // Some honest node decided b; join the termination wave.
    finish_sent_ = true;
    decision_ = b;
    ctx.broadcast(cfg_.channel,
                  std::make_shared<BenOrMessage>(BenOrMessage::Kind::kFinish,
                                                 round_, b ? 1 : 0));
  }
  if (cnt >= 2 * cfg_.t + 1 && decision_.has_value() && *decision_ == b) {
    terminated_ = true;
  }
}

std::optional<double> BenOrProtocol::output_value() const {
  if (!terminated_ || !decision_.has_value()) return std::nullopt;
  return *decision_ ? 1.0 : 0.0;
}

}  // namespace delphi::benor
