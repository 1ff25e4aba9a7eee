#pragma once
/// Shared helpers for the test suite: simulation config and scenario-spec
/// builders, and protocol-specific Byzantine strategies used across files.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "binaa/message.hpp"
#include "delphi/params.hpp"
#include "net/protocol.hpp"
#include "rbc/rbc.hpp"
#include "scenario/runtime.hpp"
#include "sim/byzantine.hpp"

namespace delphi::test {

/// Simulation config with aggressive-but-benign asynchrony (wide latency
/// spread) — the default environment for correctness tests.
inline sim::SimConfig async_config(std::size_t n, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.latency = std::make_shared<sim::UniformLatency>(100, 20'000);
  return cfg;
}

/// Same but with a random-extra-delay network adversary stacked on top.
inline sim::SimConfig adversarial_config(std::size_t n, std::uint64_t seed,
                                         SimTime extra = 50'000) {
  auto cfg = async_config(n, seed);
  cfg.adversary = std::make_shared<sim::RandomDelayAdversary>(extra);
  return cfg;
}

/// async_config's network as a spec for scenario::SimRuntime: `testbed=async`
/// is the same UniformLatency(100, 20'000) with free CPU and auth on.
inline scenario::ScenarioSpec async_spec(const std::string& protocol,
                                         std::size_t n, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.testbed = scenario::TestbedKind::kAsync;
  spec.n = n;
  spec.seed = seed;
  return spec;
}

/// adversarial_config's network: async_spec plus
/// `adversary=random-delay:<extra>`.
inline scenario::ScenarioSpec adversarial_spec(const std::string& protocol,
                                               std::size_t n,
                                               std::uint64_t seed,
                                               SimTime extra = 50'000) {
  auto spec = async_spec(protocol, n, seed);
  spec.adversary.kind = scenario::AdversaryKind::kRandomDelay;
  spec.adversary.us = static_cast<std::uint64_t>(extra);
  return spec;
}

/// Delphi's parameter block as the spec params the registry reads.
inline void set_delphi_params(scenario::ScenarioSpec& spec,
                              const protocol::DelphiParams& p) {
  spec.params["space-min"] = p.space_min;
  spec.params["space-max"] = p.space_max;
  spec.params["rho0"] = p.rho0;
  spec.params["eps"] = p.eps;
  spec.params["delta-max"] = p.delta_max;
}

/// Pin node i's bit to bit(i) for the binary protocols, which read
/// `inputs[i] >= center` as node i's input.
template <typename BitOf>
void set_bit_inputs(scenario::ScenarioSpec& spec, BitOf bit) {
  spec.center = 0.5;
  spec.inputs.assign(spec.n, 0.0);
  for (NodeId i = 0; i < spec.n; ++i) spec.inputs[i] = bit(i) ? 1.0 : 0.0;
}

/// Range (max - min) of a vector.
inline double spread(const std::vector<double>& xs) {
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  return *mx - *mn;
}

/// Byzantine BinAA node that equivocates: ECHO1(0) to even nodes and
/// ECHO1(scale) to odd nodes in every round it hears about, plus conflicting
/// ECHO2s — the classic split-the-vote attack on echo protocols.
class BinAaEquivocator final : public net::Protocol {
 public:
  BinAaEquivocator(std::uint32_t r_max, std::uint32_t channel)
      : r_max_(r_max), channel_(channel) {}

  void on_start(net::Context& ctx) override { spray(ctx, 1); }

  void on_message(net::Context& ctx, NodeId, std::uint32_t,
                  const net::MessageBody& body) override {
    if (const auto* echo = dynamic_cast<const binaa::EchoMessage*>(&body)) {
      spray(ctx, echo->round());
    }
  }

  bool terminated() const override { return true; }

 private:
  void spray(net::Context& ctx, std::uint32_t round) {
    if (round > r_max_ || sprayed_round_ >= round) return;
    sprayed_round_ = round;
    const binaa::ScaledValue scale = binaa::ScaledValue{1} << r_max_;
    for (NodeId to = 0; to < ctx.n(); ++to) {
      const binaa::ScaledValue v = (to % 2 == 0) ? 0 : scale;
      ctx.send(to, channel_,
               std::make_shared<binaa::EchoMessage>(1, round, v));
      ctx.send(to, channel_,
               std::make_shared<binaa::EchoMessage>(2, round, scale - v));
    }
  }

  std::uint32_t r_max_;
  std::uint32_t channel_;
  std::uint32_t sprayed_round_ = 0;
};

/// Byzantine RBC broadcaster that sends different SEND payloads to the two
/// halves of the system (equivocation), then echoes both.
class RbcEquivocator final : public net::Protocol {
 public:
  RbcEquivocator(std::uint32_t channel, std::vector<std::uint8_t> a,
                 std::vector<std::uint8_t> b)
      : channel_(channel), a_(std::move(a)), b_(std::move(b)) {}

  void on_start(net::Context& ctx) override {
    for (NodeId to = 0; to < ctx.n(); ++to) {
      const auto& payload = (to < ctx.n() / 2) ? a_ : b_;
      ctx.send(to, channel_,
               std::make_shared<rbc::RbcMessage>(rbc::RbcMessage::Kind::kSend,
                                                 payload));
      ctx.send(to, channel_,
               std::make_shared<rbc::RbcMessage>(rbc::RbcMessage::Kind::kEcho,
                                                 payload));
    }
  }

  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return true; }

 private:
  std::uint32_t channel_;
  std::vector<std::uint8_t> a_, b_;
};

}  // namespace delphi::test
