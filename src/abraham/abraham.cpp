#include "abraham/abraham.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace delphi::abraham {

namespace {

std::vector<std::uint8_t> encode_value(double v) {
  ByteWriter w(8);
  w.f64(v);
  return w.take();
}

/// Decode an estimate payload; returns nullopt on malformed/out-of-range
/// bytes (a Byzantine broadcaster — its value is simply not counted).
std::optional<double> decode_value(const std::vector<std::uint8_t>& payload,
                                   double lo, double hi) {
  if (payload.size() != 8) return std::nullopt;
  ByteReader r(payload);
  const double v = r.f64();
  if (!std::isfinite(v) || v < lo || v > hi) return std::nullopt;
  return v;
}

}  // namespace

// ---------------------------------------------------------- WitnessMessage --

std::size_t WitnessMessage::wire_size() const {
  std::size_t sz = uvarint_size(round_) + uvarint_size(ids_.size());
  for (NodeId id : ids_) sz += uvarint_size(id);
  return sz;
}

void WitnessMessage::serialize(ByteWriter& w) const {
  w.uvarint(round_);
  w.uvarint(ids_.size());
  for (NodeId id : ids_) w.uvarint(id);
}

std::shared_ptr<const WitnessMessage> WitnessMessage::decode(ByteReader& r) {
  const auto round = static_cast<std::uint32_t>(r.uvarint());
  const std::uint64_t count = r.uvarint();
  DELPHI_REQUIRE(count <= r.remaining() + 1, "WITNESS: id count overflow");
  std::vector<NodeId> ids;
  ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<NodeId>(r.uvarint()));
  }
  return std::make_shared<WitnessMessage>(round, std::move(ids));
}

// --------------------------------------------------------- AbrahamProtocol --

AbrahamProtocol::AbrahamProtocol(Config cfg, double input)
    : cfg_(cfg), estimate_(input) {
  DELPHI_ASSERT(cfg_.n > 3 * cfg_.t, "Abraham AA requires n > 3t");
  DELPHI_ASSERT(cfg_.rounds >= 1, "Abraham AA needs >= 1 round");
  if (!(input >= cfg_.space_min && input <= cfg_.space_max)) {
    throw ConfigError("Abraham AA: input outside the value space");
  }
  rounds_state_.resize(cfg_.rounds);
}

AbrahamProtocol::RoundCtx& AbrahamProtocol::round_ctx(std::uint32_t round) {
  DELPHI_ASSERT(round < cfg_.rounds, "Abraham AA: round out of range");
  RoundCtx& rc = rounds_state_[round];
  if (rc.rbcs.empty()) {
    rc.rbcs.reserve(cfg_.n);
    for (NodeId j = 0; j < cfg_.n; ++j) {
      rc.rbcs.push_back(rbc::RbcInstance(rbc::RbcInstance::Config{
          cfg_.n, cfg_.t, j, rbc_channel(round, j), /*max_payload=*/16}));
    }
    rc.values.assign(cfg_.n, std::nullopt);
    rc.witness_lists.assign(cfg_.n, std::nullopt);
    rc.witness_missing.assign(cfg_.n, 0);
    rc.waiters.assign(cfg_.n, {});
    rc.in_union = NodeBitset(cfg_.n);
  }
  return rc;
}

void AbrahamProtocol::on_value_delivered(RoundCtx& rc, NodeId slot) {
  auto v = decode_value(rc.rbcs[slot].value(), cfg_.space_min, cfg_.space_max);
  if (!v) return;  // malformed Byzantine value: never counted
  rc.values[slot] = *v;
  ++rc.delivered;
  // Wake witnesses that were waiting on this id.
  for (NodeId j : rc.waiters[slot]) {
    if (--rc.witness_missing[j] == 0) {
      ++rc.satisfied;
      rc.witness_lists[j]->for_each(
          [&](NodeId id) { rc.in_union.insert(id); });
    }
  }
  rc.waiters[slot].clear();
  rc.waiters[slot].shrink_to_fit();
}

void AbrahamProtocol::on_witness_accepted(RoundCtx& rc, NodeId j) {
  std::size_t missing = 0;
  rc.witness_lists[j]->for_each([&](NodeId id) {
    if (!rc.values[id]) {
      ++missing;
      rc.waiters[id].push_back(j);
    }
  });
  if (missing == 0) {
    ++rc.satisfied;
    rc.witness_lists[j]->for_each([&](NodeId id) { rc.in_union.insert(id); });
  } else {
    rc.witness_missing[j] = missing;
  }
}

void AbrahamProtocol::on_start(net::Context& ctx) { begin_round(ctx); }

void AbrahamProtocol::begin_round(net::Context& ctx) {
  RoundCtx& rc = round_ctx(round_);
  rc.rbcs[ctx.self()].start(ctx, encode_value(estimate_));
}

void AbrahamProtocol::on_message(net::Context& ctx, NodeId from,
                                 std::uint32_t channel,
                                 const net::MessageBody& body) {
  if (output_) return;
  const std::uint32_t round = channel_round(channel);
  const std::uint32_t slot = channel_slot(channel);
  DELPHI_REQUIRE(round < cfg_.rounds, "Abraham AA: bad round channel");
  RoundCtx& rc = round_ctx(round);

  if (slot < cfg_.n) {
    const bool was = rc.rbcs[slot].delivered();
    rc.rbcs[slot].on_message(ctx, from, body);
    if (!was && rc.rbcs[slot].delivered()) {
      on_value_delivered(rc, static_cast<NodeId>(slot));
    }
  } else {
    const auto* w = dynamic_cast<const WitnessMessage*>(&body);
    DELPHI_REQUIRE(w != nullptr, "Abraham AA: foreign witness message");
    DELPHI_REQUIRE(w->round() == round, "Abraham AA: witness round mismatch");
    if (!rc.witness_lists[from]) {
      // Validate: ids distinct and in range, list size >= n - t (an honest
      // witness has seen at least a quorum).
      NodeBitset ids(cfg_.n);
      bool ok = true;
      for (NodeId id : w->ids()) {
        if (id >= cfg_.n || !ids.insert(id)) {
          ok = false;
          break;
        }
      }
      if (ok && ids.count() >= cfg_.n - cfg_.t) {
        rc.witness_lists[from] = std::move(ids);
        on_witness_accepted(rc, from);
      }
    }
  }
  check_progress(ctx);
}

void AbrahamProtocol::check_progress(net::Context& ctx) {
  while (!output_) {
    RoundCtx& rc = round_ctx(round_);

    // Step 2: witness broadcast after n-t deliveries.
    if (!rc.witness_sent && rc.delivered >= cfg_.n - cfg_.t) {
      rc.witness_sent = true;
      std::vector<NodeId> ids;
      ids.reserve(rc.delivered);
      for (NodeId j = 0; j < cfg_.n; ++j) {
        if (rc.values[j]) ids.push_back(j);
      }
      ctx.broadcast(witness_channel(round_),
                    std::make_shared<WitnessMessage>(round_, ids));
    }

    // Step 3: enough witnesses whose lists we fully delivered? (Tracked
    // incrementally by on_value_delivered / on_witness_accepted.)
    if (rc.satisfied < cfg_.n - cfg_.t) return;

    // Step 4: trimmed-midpoint update over the union of satisfied witnesses.
    std::vector<double> vals;
    vals.reserve(cfg_.n);
    for (NodeId j = 0; j < cfg_.n; ++j) {
      if (rc.in_union.contains(j) && rc.values[j]) {
        vals.push_back(*rc.values[j]);
      }
    }
    DELPHI_ASSERT(vals.size() >= 2 * cfg_.t + 1,
                  "Abraham AA: union smaller than 2t+1");
    std::sort(vals.begin(), vals.end());
    const double lo = vals[cfg_.t];
    const double hi = vals[vals.size() - 1 - cfg_.t];
    estimate_ = 0.5 * (lo + hi);
    rc.advanced = true;

    if (round_ + 1 == cfg_.rounds) {
      output_ = estimate_;
      return;
    }
    ++round_;
    begin_round(ctx);
    // Loop: buffered traffic may already complete the new round.
  }
}

}  // namespace delphi::abraham
