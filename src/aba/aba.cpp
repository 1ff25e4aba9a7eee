#include "aba/aba.hpp"

#include "common/error.hpp"

namespace delphi::aba {

// -------------------------------------------------------------- AbaMessage --

std::size_t AbaMessage::wire_size() const {
  return 1 + uvarint_size(round_) + 1;
}

void AbaMessage::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  w.uvarint(round_);
  w.u8(value_ ? 1 : 0);
}

std::shared_ptr<const AbaMessage> AbaMessage::decode(ByteReader& r) {
  const std::uint8_t k = r.u8();
  DELPHI_REQUIRE(k <= 2, "ABA: unknown message kind");
  const auto round = static_cast<std::uint32_t>(r.uvarint());
  const std::uint8_t v = r.u8();
  DELPHI_REQUIRE(v <= 1, "ABA: non-binary value");
  return std::make_shared<AbaMessage>(static_cast<Kind>(k), round, v == 1);
}

// ------------------------------------------------------------- AbaInstance --

AbaInstance::AbaInstance(Config cfg) : cfg_(cfg) {
  DELPHI_ASSERT(cfg_.n > 3 * cfg_.t, "ABA requires n > 3t");
  DELPHI_ASSERT(cfg_.coin != nullptr, "ABA requires a common coin");
  finish_senders_[0] = NodeBitset(cfg_.n);
  finish_senders_[1] = NodeBitset(cfg_.n);
}

AbaInstance::RoundState& AbaInstance::round_state(std::uint32_t r) {
  RoundState& rs = rounds_[r];
  if (!rs.initialized) {
    rs.initialized = true;
    rs.bval_senders[0] = NodeBitset(cfg_.n);
    rs.bval_senders[1] = NodeBitset(cfg_.n);
    rs.aux_senders = NodeBitset(cfg_.n);
    rs.aux_votes[0] = NodeBitset(cfg_.n);
    rs.aux_votes[1] = NodeBitset(cfg_.n);
  }
  return rs;
}

void AbaInstance::start(net::Context& ctx, bool input) {
  DELPHI_ASSERT(!started_, "ABA started twice");
  started_ = true;
  advance_to(ctx, 1, input);
  process_round(ctx);
}

void AbaInstance::advance_to(net::Context& ctx, std::uint32_t r, bool est) {
  round_ = r;
  est_ = est;
  RoundState& rs = round_state(r);
  const std::size_t b = est ? 1 : 0;
  if (!rs.bval_broadcast[b]) {
    rs.bval_broadcast[b] = true;
    ctx.broadcast(cfg_.channel, std::make_shared<AbaMessage>(
                                    AbaMessage::Kind::kBval, r, est));
  }
}

void AbaInstance::on_message(net::Context& ctx, NodeId from,
                             const net::MessageBody& body) {
  if (terminated_) return;
  const auto* msg = dynamic_cast<const AbaMessage*>(&body);
  DELPHI_REQUIRE(msg != nullptr, "ABA: foreign message type");
  DELPHI_REQUIRE(msg->round() >= 1 && msg->round() <= cfg_.max_rounds + 1,
                 "ABA: round out of range");

  switch (msg->kind()) {
    case AbaMessage::Kind::kBval: {
      RoundState& rs = round_state(msg->round());
      const std::size_t b = msg->value() ? 1 : 0;
      if (!rs.bval_senders[b].insert(from)) return;  // duplicate
      // t+1 amplification.
      if (rs.bval_senders[b].count() >= cfg_.t + 1 && !rs.bval_broadcast[b]) {
        rs.bval_broadcast[b] = true;
        ctx.broadcast(cfg_.channel,
                      std::make_shared<AbaMessage>(AbaMessage::Kind::kBval,
                                                   msg->round(), msg->value()));
      }
      // 2t+1 acceptance into bin_values; first acceptance triggers AUX.
      if (rs.bval_senders[b].count() >= 2 * cfg_.t + 1 && !rs.bin_values[b]) {
        rs.bin_values[b] = true;
        if (!rs.aux_sent) {
          rs.aux_sent = true;
          ctx.broadcast(cfg_.channel, std::make_shared<AbaMessage>(
                                          AbaMessage::Kind::kAux, msg->round(),
                                          msg->value()));
        }
      }
      break;
    }
    case AbaMessage::Kind::kAux: {
      RoundState& rs = round_state(msg->round());
      if (rs.aux_senders.insert(from)) {  // first AUX per sender counts
        rs.aux_votes[msg->value() ? 1 : 0].insert(from);
      }
      break;
    }
    case AbaMessage::Kind::kFinish: {
      on_finish(ctx, from, msg->value());
      return;
    }
  }
  if (started_) process_round(ctx);
}

void AbaInstance::process_round(net::Context& ctx) {
  while (!terminated_) {
    RoundState& rs = round_state(round_);
    if (rs.done || (!rs.bin_values[0] && !rs.bin_values[1])) return;

    // Wait for n-t AUX votes carrying values inside bin_values.
    std::size_t supporting = 0;
    bool in_view[2] = {false, false};
    for (std::size_t b = 0; b < 2; ++b) {
      if (rs.bin_values[b] && rs.aux_votes[b].count() > 0) {
        supporting += rs.aux_votes[b].count();
        in_view[b] = true;
      }
    }
    if (supporting < cfg_.n - cfg_.t) return;

    // Threshold-coin toss: the compute charge is the whole point of modeling
    // this (see README.md "Substitutions").
    ctx.charge_compute(cfg_.coin_compute_us);
    const bool c = cfg_.coin->toss(cfg_.instance_id, round_);
    rs.done = true;

    bool next_est;
    if (in_view[0] != in_view[1]) {
      const bool b = in_view[1];
      next_est = b;
      if (b == c && !decision_) decide(ctx, b);
    } else {
      next_est = c;
    }
    if (terminated_) return;
    if (round_ >= cfg_.max_rounds) {
      throw InternalError("ABA exceeded max_rounds — scheduler stalled?");
    }
    advance_to(ctx, round_ + 1, next_est);
    // Loop: buffered messages for the new round may already satisfy it.
  }
}

void AbaInstance::decide(net::Context& ctx, bool b) {
  decision_ = b;
  if (!finish_sent_) {
    finish_sent_ = true;
    ctx.broadcast(cfg_.channel, std::make_shared<AbaMessage>(
                                    AbaMessage::Kind::kFinish, 1, b));
  }
}

void AbaInstance::on_finish(net::Context& ctx, NodeId from, bool b) {
  const std::size_t idx = b ? 1 : 0;
  if (!finish_senders_[idx].insert(from)) return;
  if (finish_senders_[idx].count() >= cfg_.t + 1 && !finish_sent_) {
    finish_sent_ = true;
    if (!decision_) decision_ = b;
    ctx.broadcast(cfg_.channel, std::make_shared<AbaMessage>(
                                    AbaMessage::Kind::kFinish, 1, b));
  }
  if (finish_senders_[idx].count() >= 2 * cfg_.t + 1) {
    if (!decision_) decision_ = b;
    terminated_ = true;
  }
}

bool AbaInstance::decision() const {
  DELPHI_ASSERT(decision_.has_value(), "ABA decision read before deciding");
  return *decision_;
}

}  // namespace delphi::aba
