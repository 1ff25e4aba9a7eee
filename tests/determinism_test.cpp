/// Determinism regression gate for the simulator engine: the same SimConfig +
/// seed must produce bit-identical SimMetrics, per-node metrics, and honest
/// outputs across repeated runs — under every fifo_links / auth_channels
/// toggle combination and for every protocol family the benches exercise
/// (Delphi, Abraham et al., FIN-style ACS). Any engine change that perturbs
/// event ordering, RNG draw order, or cost rounding fails here loudly.

#include <gtest/gtest.h>

#include <vector>

#include "abraham/abraham.hpp"
#include "acs/acs.hpp"
#include "crypto/coin.hpp"
#include "delphi/delphi.hpp"
#include "scenario/runtime.hpp"
#include "tests/test_util.hpp"

namespace delphi::sim {
namespace {

/// Everything observable from one run, collected field-by-field so that a
/// mismatch pinpoints what drifted.
struct RunTrace {
  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t events = 0;
  SimTime honest_completion = -1;
  bool all_honest_terminated = false;
  std::vector<std::uint64_t> node_msgs_sent;
  std::vector<std::uint64_t> node_bytes_sent;
  std::vector<std::uint64_t> node_msgs_delivered;
  std::vector<SimTime> node_terminated_at;
  std::vector<double> outputs;
};

RunTrace trace_run(const SimConfig& cfg, const ProtocolFactory& factory,
                   const std::set<NodeId>& byzantine = {}) {
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) sim.add_node(factory(i));
  sim.set_byzantine(byzantine);
  RunTrace t;
  t.all_honest_terminated = sim.run();
  t.total_msgs = sim.metrics().total_msgs;
  t.total_bytes = sim.metrics().total_bytes;
  t.events = sim.metrics().events_processed;
  t.honest_completion = sim.metrics().honest_completion;
  for (NodeId i = 0; i < cfg.n; ++i) {
    const NodeMetrics& m = sim.node_metrics(i);
    t.node_msgs_sent.push_back(m.msgs_sent);
    t.node_bytes_sent.push_back(m.bytes_sent);
    t.node_msgs_delivered.push_back(m.msgs_delivered);
    t.node_terminated_at.push_back(m.terminated_at);
    if (const auto* vo = dynamic_cast<const net::ValueOutput*>(&sim.node(i))) {
      if (auto v = vo->output_value()) t.outputs.push_back(*v);
    }
  }
  return t;
}

/// Bit-identical comparison (doubles compared with ==: the contract is exact
/// reproducibility, not approximate agreement).
void expect_identical(const RunTrace& a, const RunTrace& b,
                      const std::string& tag) {
  EXPECT_EQ(a.total_msgs, b.total_msgs) << tag;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << tag;
  EXPECT_EQ(a.events, b.events) << tag;
  EXPECT_EQ(a.honest_completion, b.honest_completion) << tag;
  EXPECT_EQ(a.all_honest_terminated, b.all_honest_terminated) << tag;
  EXPECT_EQ(a.node_msgs_sent, b.node_msgs_sent) << tag;
  EXPECT_EQ(a.node_bytes_sent, b.node_bytes_sent) << tag;
  EXPECT_EQ(a.node_msgs_delivered, b.node_msgs_delivered) << tag;
  EXPECT_EQ(a.node_terminated_at, b.node_terminated_at) << tag;
  EXPECT_EQ(a.outputs, b.outputs) << tag;
}

protocol::DelphiProtocol::Config delphi_cfg(std::size_t n) {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 64.0;
  protocol::DelphiProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.params = p;
  return c;
}

const std::vector<double>& delphi_inputs() {
  static const std::vector<double> inputs = {100.0, 105.5, 103.25, 101.0,
                                             99.75, 104.0,  102.5};
  return inputs;
}

SimConfig cps_config(std::size_t n, std::uint64_t seed, bool fifo, bool auth) {
  SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.latency = std::make_shared<CpsLanLatency>();
  cfg.cost = CostModel::cps();
  cfg.fifo_links = fifo;
  cfg.auth_channels = auth;
  return cfg;
}

TEST(Determinism, DelphiBitIdenticalUnderEveryToggleCombination) {
  const std::size_t n = 7;
  auto factory = [&](NodeId i) {
    return std::make_unique<protocol::DelphiProtocol>(delphi_cfg(n),
                                                      delphi_inputs()[i]);
  };
  for (bool fifo : {false, true}) {
    for (bool auth : {false, true}) {
      const std::string tag = std::string("fifo=") + (fifo ? "1" : "0") +
                              " auth=" + (auth ? "1" : "0");
      const auto a = trace_run(cps_config(n, 42, fifo, auth), factory);
      const auto b = trace_run(cps_config(n, 42, fifo, auth), factory);
      EXPECT_TRUE(a.all_honest_terminated) << tag;
      expect_identical(a, b, tag);
      // A different seed must actually change the schedule (the test is not
      // vacuously comparing constants).
      const auto c = trace_run(cps_config(n, 43, fifo, auth), factory);
      EXPECT_NE(a.honest_completion, c.honest_completion) << tag;
    }
  }
}

TEST(Determinism, AuthTogglesBytesButNotScheduleUnderFreeCpu) {
  // With CostModel::fast() the HMAC tag costs no CPU and no serialization
  // time, so disabling auth_channels may only change byte accounting — the
  // event schedule, message counts, and outputs must match exactly.
  const std::size_t n = 7;
  auto factory = [&](NodeId i) {
    return std::make_unique<protocol::DelphiProtocol>(delphi_cfg(n),
                                                      delphi_inputs()[i]);
  };
  auto cfg_auth = cps_config(n, 7, /*fifo=*/false, /*auth=*/true);
  cfg_auth.cost = CostModel::fast();
  auto cfg_plain = cfg_auth;
  cfg_plain.auth_channels = false;

  const auto a = trace_run(cfg_auth, factory);
  const auto p = trace_run(cfg_plain, factory);
  EXPECT_TRUE(a.all_honest_terminated);
  EXPECT_EQ(a.total_msgs, p.total_msgs);
  EXPECT_EQ(a.events, p.events);
  EXPECT_EQ(a.honest_completion, p.honest_completion);
  EXPECT_EQ(a.node_msgs_delivered, p.node_msgs_delivered);
  EXPECT_EQ(a.outputs, p.outputs);
  // 32 tag bytes per network frame is the only difference.
  EXPECT_EQ(a.total_bytes, p.total_bytes + 32 * a.total_msgs);
}

TEST(Determinism, AbrahamBitIdenticalWithByzantineNode) {
  const std::size_t n = 7;
  abraham::AbrahamProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.rounds = 8;
  c.space_min = -1e6;
  c.space_max = 1e6;
  auto factory = [&](NodeId i) {
    return std::make_unique<abraham::AbrahamProtocol>(c, delphi_inputs()[i]);
  };
  const std::set<NodeId> byz = {6};
  const auto a = trace_run(cps_config(n, 11, false, true), factory, byz);
  const auto b = trace_run(cps_config(n, 11, false, true), factory, byz);
  EXPECT_TRUE(a.all_honest_terminated);
  expect_identical(a, b, "abraham");
}

TEST(Determinism, FinAcsBitIdenticalAcrossRuns) {
  const std::size_t n = 4;
  static const crypto::CommonCoin coin(0xDEC0DE);
  acs::AcsProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.coin = &coin;
  c.coin_compute_us = 1000;
  c.session = 9;
  auto factory = [&](NodeId i) {
    return std::make_unique<acs::AcsProtocol>(c, delphi_inputs()[i]);
  };
  const auto a = trace_run(cps_config(n, 21, false, true), factory);
  const auto b = trace_run(cps_config(n, 21, false, true), factory);
  EXPECT_TRUE(a.all_honest_terminated);
  expect_identical(a, b, "fin-acs");
}

TEST(Determinism, DeclarativeFaultPlaneBitIdentical) {
  // The whole fault plane through the scenario layer: network adversary +
  // Byzantine behaviour + crash, declared in the spec. Same spec + seed must
  // reproduce the unified RunReport exactly — the PR-2 determinism contract
  // extends to every faulted run (adversary draws share the network RNG, and
  // Byzantine wrappers draw from the node's own stream).
  for (const char* adversary :
       {"random-delay:40000", "targeted-lag:2:60000", "partition:2:300000",
        "burst:15000"}) {
    for (const char* byzantine : {"crash-after:20:1", "garbage:32:1"}) {
      SCOPED_TRACE(std::string(adversary) + " / " + byzantine);
      scenario::ScenarioSpec spec;
      spec.protocol = "delphi";
      spec.testbed = scenario::TestbedKind::kCps;
      spec.n = 9;
      spec.seed = 17;
      spec.crashes = 1;
      spec.adversary = scenario::parse_adversary(adversary);
      spec.byzantine = scenario::parse_byzantine(byzantine);
      const auto a = scenario::SimRuntime().run(spec);
      const auto b = scenario::SimRuntime().run(spec);
      EXPECT_TRUE(a.ok);
      EXPECT_EQ(a, b);  // RunReport == is field-exact
    }
  }
}

TEST(Determinism, AdversarialScheduleBitIdentical) {
  // The adversary draws from the shared network RNG; its draws interleave
  // with latency draws, so this pins the whole per-message RNG draw order.
  const std::size_t n = 7;
  auto factory = [&](NodeId i) {
    return std::make_unique<protocol::DelphiProtocol>(delphi_cfg(n),
                                                      delphi_inputs()[i]);
  };
  auto cfg = cps_config(n, 33, /*fifo=*/true, /*auth=*/true);
  cfg.adversary = std::make_shared<RandomDelayAdversary>(50'000);
  const auto a = trace_run(cfg, factory);
  const auto b = trace_run(cfg, factory);
  EXPECT_TRUE(a.all_honest_terminated);
  expect_identical(a, b, "adversarial");
}

}  // namespace
}  // namespace delphi::sim
