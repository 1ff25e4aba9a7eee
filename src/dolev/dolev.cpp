#include "dolev/dolev.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace delphi::dolev {

// -------------------------------------------------------- RoundValueMessage

std::shared_ptr<const RoundValueMessage> RoundValueMessage::decode(
    ByteReader& r) {
  const auto round = static_cast<std::uint32_t>(r.uvarint());
  const double value = r.f64();
  return std::make_shared<RoundValueMessage>(round, value);
}

// ------------------------------------------------------------ DolevProtocol

std::uint32_t DolevProtocol::rounds_for(double delta, double eps) {
  DELPHI_ASSERT(eps > 0.0, "Dolev AA: eps must be positive");
  if (delta <= eps) return 1;
  return static_cast<std::uint32_t>(std::ceil(std::log2(delta / eps)));
}

DolevProtocol::DolevProtocol(Config cfg, double input)
    : cfg_(cfg), estimate_(input) {
  if (cfg_.n < 5 * cfg_.t + 1) {
    throw ConfigError("Dolev AA requires n >= 5t + 1");
  }
  if (cfg_.rounds < 1) throw ConfigError("Dolev AA needs >= 1 round");
  if (!(input >= cfg_.space_min && input <= cfg_.space_max)) {
    throw ConfigError("Dolev AA: input outside the value space");
  }
  rounds_state_.resize(cfg_.rounds);
  for (auto& rc : rounds_state_) rc.values.assign(cfg_.n, std::nullopt);
}

void DolevProtocol::on_start(net::Context& ctx) {
  // Own value arrives via broadcast self-delivery like everyone else's.
  ctx.broadcast(/*channel=*/0,
                std::make_shared<RoundValueMessage>(0, estimate_));
}

void DolevProtocol::on_message(net::Context& ctx, NodeId from,
                               std::uint32_t /*channel*/,
                               const net::MessageBody& body) {
  if (output_.has_value()) return;
  const auto* msg = dynamic_cast<const RoundValueMessage*>(&body);
  DELPHI_REQUIRE(msg != nullptr, "Dolev AA: foreign message type");
  DELPHI_REQUIRE(msg->round() < cfg_.rounds, "Dolev AA: round out of range");
  const double v = msg->value();
  DELPHI_REQUIRE(std::isfinite(v) && v >= cfg_.space_min && v <= cfg_.space_max,
                 "Dolev AA: value outside the value space");

  Round& rc = rounds_state_[msg->round()];
  if (rc.values[from].has_value()) return;  // equivocation: first value wins
  rc.values[from] = v;
  ++rc.count;
  advance_while_ready(ctx);
}

void DolevProtocol::snapshot(ByteWriter& w) const {
  w.f64(estimate_);
  w.uvarint(round_);
  w.u8(output_.has_value() ? 1 : 0);
  if (output_) w.f64(*output_);
  w.uvarint(rounds_state_.size());
  for (const Round& rc : rounds_state_) {
    w.uvarint(rc.count);
    for (const auto& v : rc.values) {
      w.u8(v.has_value() ? 1 : 0);
      if (v) w.f64(*v);
    }
  }
}

void DolevProtocol::restore(ByteReader& r) {
  estimate_ = r.f64();
  round_ = static_cast<std::uint32_t>(r.uvarint());
  DELPHI_REQUIRE(round_ <= cfg_.rounds, "Dolev AA: snapshot round range");
  output_.reset();
  if (r.u8() != 0) output_ = r.f64();
  const std::uint64_t n_rounds = r.uvarint();
  DELPHI_REQUIRE(n_rounds == rounds_state_.size(),
                 "Dolev AA: snapshot round-count mismatch");
  for (Round& rc : rounds_state_) {
    rc.count = static_cast<std::size_t>(r.uvarint());
    DELPHI_REQUIRE(rc.count <= cfg_.n, "Dolev AA: snapshot count range");
    for (auto& v : rc.values) {
      v.reset();
      if (r.u8() != 0) v = r.f64();
    }
  }
  r.expect_exhausted();
}

void DolevProtocol::advance_while_ready(net::Context& ctx) {
  const std::size_t needed = quorum_size(cfg_.n, cfg_.t);
  while (!output_.has_value() && rounds_state_[round_].count >= needed) {
    // Snapshot the collected multiset; exactly the values present now.
    Round& rc = rounds_state_[round_];
    std::vector<double> vals;
    vals.reserve(rc.count);
    for (const auto& v : rc.values) {
      if (v) vals.push_back(*v);
    }
    std::sort(vals.begin(), vals.end());
    // Trim t from each side: survivors are bracketed by honest values.
    DELPHI_ASSERT(vals.size() > 2 * cfg_.t, "Dolev AA: trim underflow");
    const double lo = vals[cfg_.t];
    const double hi = vals[vals.size() - 1 - cfg_.t];
    estimate_ = (lo + hi) / 2.0;

    ++round_;
    if (round_ == cfg_.rounds) {
      output_ = estimate_;
      return;
    }
    ctx.broadcast(/*channel=*/0,
                  std::make_shared<RoundValueMessage>(round_, estimate_));
  }
}

}  // namespace delphi::dolev
