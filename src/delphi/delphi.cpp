#include "delphi/delphi.hpp"

#include <algorithm>
#include <cmath>

namespace delphi::protocol {

namespace {
/// Per-sender first-mention budget at a level: honest nodes introduce at most
/// their two closest checkpoints (plus relays of instances the receiver will
/// also hear about from the original mentioner), so a budget linear in the
/// level's legitimate active width blocks Byzantine checkpoint-spam without
/// ever throttling honest traffic.
std::uint16_t mention_budget(const DelphiParams& p, std::uint32_t level,
                             std::size_t n) {
  const double width = p.delta_max / p.rho(level);
  const double cap =
      std::min<double>(2.0 * static_cast<double>(n),
                       4.0 + 2.0 * std::ceil(width));
  return static_cast<std::uint16_t>(std::max(8.0, cap));
}
}  // namespace

DelphiProtocol::DelphiProtocol(Config cfg, double input)
    : cfg_(cfg), input_(input) {
  cfg_.params.validate();
  DELPHI_ASSERT(cfg_.n > 3 * cfg_.t, "Delphi requires n > 3t");
  if (!(input >= cfg_.params.space_min && input <= cfg_.params.space_max)) {
    throw ConfigError("Delphi: input outside [s, e]");
  }
  r_max_ = cfg_.params.r_max(cfg_.n);
  const binaa::BinAaCore::Config core_cfg{cfg_.n, cfg_.t, r_max_};
  const std::uint32_t nl = cfg_.params.num_levels();
  levels_.reserve(nl);
  own_checkpoints_.reserve(nl);
  for (std::uint32_t l = 0; l < nl; ++l) {
    levels_.emplace_back(core_cfg);
    levels_.back().mentions_left.assign(
        cfg_.n, mention_budget(cfg_.params, l, cfg_.n));
    own_checkpoints_.push_back(cfg_.params.closest_checkpoints(l, input_));
    ++pending_instances_;  // the level's default core
  }
}

bool DelphiProtocol::is_own_checkpoint(std::uint32_t level,
                                       std::int64_t k) const {
  const auto& [lo, hi] = own_checkpoints_[level];
  return k == lo || k == hi;
}

void DelphiProtocol::on_start(net::Context& ctx) {
  Collector col;
  for (std::uint32_t l = 0; l < levels_.size(); ++l) {
    // The virtual default instance always starts with input 0.
    scratch_.clear();
    levels_[l].default_core.start(false, scratch_);
    append_default_actions(l, scratch_, col);
    // Our two closest checkpoints start with input 1 (Algorithm 2 line 11).
    const auto& [lo, hi] = own_checkpoints_[l];
    ensure_instance(l, lo, ctx.self(), col);
    if (hi != lo) ensure_instance(l, hi, ctx.self(), col);
  }
  flush(ctx, std::move(col));
}

binaa::BinAaCore* DelphiProtocol::ensure_instance(std::uint32_t level,
                                                  std::int64_t k, NodeId from,
                                                  Collector& col) {
  Level& lv = levels_[level];
  auto it = std::lower_bound(
      lv.instances.begin(), lv.instances.end(), k,
      [](const auto& entry, std::int64_t key) { return entry.first < key; });
  if (it != lv.instances.end() && it->first == k) return &it->second;

  if (k < cfg_.params.k_min(level) || k > cfg_.params.k_max(level)) {
    return nullptr;  // outside the input space — Byzantine garbage
  }
  if (lv.mentions_left[from] == 0) return nullptr;  // spam guard
  --lv.mentions_left[from];

  const binaa::BinAaCore::Config core_cfg{cfg_.n, cfg_.t, r_max_};
  it = lv.instances.emplace(it, k, binaa::BinAaCore(core_cfg));
  ++pending_instances_;
  scratch_.clear();
  it->second.start(is_own_checkpoint(level, k), scratch_);
  append_actions(level, k, scratch_, col);
  return &it->second;
}

void DelphiProtocol::feed_explicit(const ExplicitEcho& e, NodeId from,
                                   Collector& col) {
  if (e.level >= levels_.size()) return;  // Byzantine garbage
  binaa::BinAaCore* core = ensure_instance(e.level, e.k, from, col);
  if (core == nullptr) return;
  const bool was_done = core->done();
  scratch_.clear();
  core->on_echo(e.kind, e.round, e.value, from, scratch_);
  append_actions(e.level, e.k, scratch_, col);
  if (!was_done && core->done()) --pending_instances_;
}

void DelphiProtocol::feed_default(const DefaultEcho& d, NodeId from,
                                  Collector& col) {
  if (d.level >= levels_.size()) return;
  binaa::BinAaCore& core = levels_[d.level].default_core;
  const bool was_done = core.done();
  scratch_.clear();
  core.on_echo(d.kind, d.round, d.value, from, scratch_);
  append_default_actions(d.level, scratch_, col);
  if (!was_done && core.done()) --pending_instances_;
}

void DelphiProtocol::append_actions(std::uint32_t level, std::int64_t k,
                                    const std::vector<binaa::EchoAction>& acts,
                                    Collector& col) {
  for (const auto& a : acts) {
    col.explicits.push_back(ExplicitEcho{level, k, a.kind, a.round, a.value});
  }
}

void DelphiProtocol::append_default_actions(
    std::uint32_t level, const std::vector<binaa::EchoAction>& acts,
    Collector& col) {
  for (const auto& a : acts) {
    col.defaults.push_back(DefaultEcho{level, a.kind, a.round, a.value});
  }
}

void DelphiProtocol::on_message(net::Context& ctx, NodeId from,
                                std::uint32_t channel,
                                const net::MessageBody& body) {
  // NOTE: processing continues after termination (output_ stays frozen; see
  // maybe_terminate). A terminated node must keep echoing so that laggards —
  // e.g. a t-sized minority behind a network partition — can still finish
  // instances the fast majority never materialized before deciding. Weight
  // agreement is unaffected: a checkpoint can only reach nonzero weight with
  // >= n - 2t >= t + 1 honest mentioners, at least one of which is outside
  // any t-sized slow set, so early terminators' implicit zero weight only
  // ever coexists with a true zero.
  DELPHI_REQUIRE(channel == cfg_.channel, "Delphi: unexpected channel");
  const auto* bundle = dynamic_cast<const DelphiBundle*>(&body);
  DELPHI_REQUIRE(bundle != nullptr, "Delphi: foreign message type");

  Collector col;
  for (const auto& e : bundle->explicits()) feed_explicit(e, from, col);
  for (const auto& d : bundle->defaults()) feed_default(d, from, col);
  flush(ctx, std::move(col));
  maybe_terminate(ctx);
}

void DelphiProtocol::flush(net::Context& ctx, Collector&& col) {
  if (col.defaults.empty() && col.explicits.empty()) return;
  ctx.broadcast(cfg_.channel,
                std::make_shared<DelphiBundle>(std::move(col.defaults),
                                               std::move(col.explicits)));
}

void DelphiProtocol::maybe_terminate(net::Context&) {
  if (output_ || pending_instances_ != 0) return;
  aggregate();
}

void DelphiProtocol::aggregate() {
  const double eps_prime = cfg_.params.eps_prime(cfg_.n);
  reports_.clear();
  reports_.resize(levels_.size());

  // Per-level representative value V_l and weight w_l (Algorithm 2 line 18).
  for (std::uint32_t l = 0; l < levels_.size(); ++l) {
    LevelReport& rep = reports_[l];
    // Every core here is finished and 24 bytes; an oracle mesh keeps each
    // agreement it ran, so the vector's growth slack is worth giving back.
    levels_[l].instances.shrink_to_fit();
    rep.active_instances = levels_[l].instances.size();
    double sum_w = 0.0, sum_wmu = 0.0, max_w = 0.0;
    for (const auto& [k, core] : levels_[l].instances) {
      const double w = core.output();
      if (w > 0.0) {
        sum_w += w;
        sum_wmu += w * cfg_.params.checkpoint(l, k);
        max_w = std::max(max_w, w);
      }
    }
    if (sum_w > 0.0) {
      rep.value = sum_wmu / sum_w;
      rep.weight = max_w;
    } else {
      // All weights zero: custom fallback weight (line 20).
      rep.value = input_;
      rep.weight = eps_prime;
      rep.used_fallback = true;
    }
  }

  // Cross-level aggregation (lines 21-24): w'_l kills the levels above the
  // first level where everything agrees (weight differentiation).
  double sum_wp = 0.0, sum_wpv = 0.0;
  for (std::uint32_t l = 0; l < reports_.size(); ++l) {
    double wp;
    if (l == 0) {
      wp = reports_[0].weight * reports_[0].weight;
    } else {
      wp = reports_[l].weight *
           std::fabs(reports_[l].weight - reports_[l - 1].weight);
    }
    reports_[l].weight_prime = wp;
    sum_wp += wp;
    sum_wpv += wp * reports_[l].value;
  }
  DELPHI_ASSERT(sum_wp > 0.0, "Delphi: zero weight sum (Theorem IV.1)");
  output_ = sum_wpv / sum_wp;
}

const std::vector<DelphiProtocol::LevelReport>& DelphiProtocol::level_reports()
    const {
  DELPHI_ASSERT(output_.has_value(), "level_reports before termination");
  return reports_;
}

std::size_t DelphiProtocol::active_instances(std::uint32_t level) const {
  DELPHI_ASSERT(level < levels_.size(), "active_instances: bad level");
  return levels_[level].instances.size();
}

}  // namespace delphi::protocol
