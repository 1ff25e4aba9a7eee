/// Golden-value regression tests for the simulator engine: tiny fixed-seed
/// Delphi / Abraham / FIN-style-ACS runs checked against the exact traffic
/// totals, event counts, per-node termination times, and decided outputs the
/// engine produced when the goldens were recorded. Any accidental behavior
/// change in the event pipeline (ordering, RNG draw order, cost rounding,
/// byte accounting) fails here with a field-level diff.
///
/// Regenerating goldens after an *intentional* behavior change:
///   ./build/golden_metrics_test --gtest_also_run_disabled_tests
///       --gtest_filter='*RegenerateGoldens*'   (one command line)
/// then paste the printed kGoldens initializer over the one below.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "abraham/abraham.hpp"
#include "acs/acs.hpp"
#include "crypto/coin.hpp"
#include "delphi/delphi.hpp"
#include "tests/test_util.hpp"

namespace delphi::sim {
namespace {

struct Observed {
  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t events = 0;
  SimTime honest_completion = -1;
  std::vector<SimTime> terminated_at;  // honest nodes, node-id order
  std::vector<double> outputs;         // honest nodes, node-id order
};

struct Golden {
  const char* name;
  std::uint64_t total_msgs;
  std::uint64_t total_bytes;
  std::uint64_t events;
  SimTime honest_completion;
  std::vector<SimTime> terminated_at;
  std::vector<double> outputs;
};

Observed observe(const SimConfig& cfg, const ProtocolFactory& factory,
                 const std::set<NodeId>& byzantine = {}) {
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) sim.add_node(factory(i));
  sim.set_byzantine(byzantine);
  EXPECT_TRUE(sim.run());
  Observed o;
  o.total_msgs = sim.metrics().total_msgs;
  o.total_bytes = sim.metrics().total_bytes;
  o.events = sim.metrics().events_processed;
  o.honest_completion = sim.metrics().honest_completion;
  for (NodeId i = 0; i < cfg.n; ++i) {
    if (byzantine.contains(i)) continue;
    o.terminated_at.push_back(sim.node_metrics(i).terminated_at);
    if (const auto* vo = dynamic_cast<const net::ValueOutput*>(&sim.node(i))) {
      if (auto v = vo->output_value()) o.outputs.push_back(*v);
    }
  }
  return o;
}

// ------------------------------------------------------------- scenarios --

const std::vector<double>& inputs7() {
  static const std::vector<double> in = {100.0, 105.5, 103.25, 101.0,
                                         99.75, 104.0,  102.5};
  return in;
}

SimConfig cps_config(std::size_t n, std::uint64_t seed, bool fifo) {
  SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.latency = std::make_shared<CpsLanLatency>();
  cfg.cost = CostModel::cps();
  cfg.fifo_links = fifo;
  return cfg;
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

Observed run_scenario(const std::string& name) {
  if (name == "delphi_cps_n7") {
    return observe(cps_config(7, 42, false), [](NodeId i) {
      return std::make_unique<protocol::DelphiProtocol>(delphi_cfg(7),
                                                        inputs7()[i]);
    });
  }
  if (name == "delphi_cps_fifo_n7") {
    return observe(cps_config(7, 42, true), [](NodeId i) {
      return std::make_unique<protocol::DelphiProtocol>(delphi_cfg(7),
                                                        inputs7()[i]);
    });
  }
  if (name == "abraham_cps_n7_byz1") {
    abraham::AbrahamProtocol::Config c;
    c.n = 7;
    c.t = max_faults(7);
    c.rounds = 8;
    c.space_min = -1e6;
    c.space_max = 1e6;
    return observe(
        cps_config(7, 11, false),
        [&](NodeId i) {
          return std::make_unique<abraham::AbrahamProtocol>(c, inputs7()[i]);
        },
        {6});
  }
  if (name == "fin_acs_cps_n4") {
    static const crypto::CommonCoin coin(0xDEC0DE);
    acs::AcsProtocol::Config c;
    c.n = 4;
    c.t = max_faults(4);
    c.coin = &coin;
    c.coin_compute_us = 1000;
    c.session = 9;
    return observe(cps_config(4, 21, false), [&](NodeId i) {
      return std::make_unique<acs::AcsProtocol>(c, inputs7()[i]);
    });
  }
  ADD_FAILURE() << "unknown scenario " << name;
  return {};
}

// ------------------------------------------------------------- goldens ----
// Recorded from the engine at PR-1 state (pre-optimization baseline); the
// optimized engine must reproduce every field bit-for-bit. See the file
// header for the regeneration one-liner.

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> kGoldens = {
      {"delphi_cps_n7", 16002u, 851658u, 18666u, 411930,
       {411457, 410367, 410171, 411359, 411027, 411930, 411022},
       {101.99999997693162, 102.00000004036967, 102.00000001441774,
        101.9999999884658, 101.99999997404807, 102.00000002306838,
        102.00000000576709}},
      {"delphi_cps_fifo_n7", 15990u, 877794u, 18652u, 411732,
       {410799, 410547, 409973, 410801, 410463, 411732, 410924},
       {101.99999997693162, 102.00000004036967, 102.00000001441774,
        101.9999999884658, 101.99999997404807, 102.00000002306838,
        102.00000000576709}},
      {"abraham_cps_n7_byz1", 5376u, 251664u, 6269u, 137856,
       {137856, 137856, 137856, 137856, 137856, 137856},
       {102.875, 102.875, 102.875, 102.875, 102.875, 102.875}},
      {"fin_acs_cps_n4", 360u, 15156u, 418u, 21865,
       {21387, 21864, 21865, 21611},
       {103.25, 103.25, 103.25, 103.25}},
  };
  return kGoldens;
}

TEST(GoldenMetrics, EngineMatchesCheckedInGoldens) {
  for (const Golden& g : goldens()) {
    SCOPED_TRACE(g.name);
    const Observed o = run_scenario(g.name);
    EXPECT_EQ(o.total_msgs, g.total_msgs);
    EXPECT_EQ(o.total_bytes, g.total_bytes);
    EXPECT_EQ(o.events, g.events);
    EXPECT_EQ(o.honest_completion, g.honest_completion);
    EXPECT_EQ(o.terminated_at, g.terminated_at);
    ASSERT_EQ(o.outputs.size(), g.outputs.size());
    for (std::size_t i = 0; i < o.outputs.size(); ++i) {
      EXPECT_EQ(o.outputs[i], g.outputs[i]) << "output " << i;
    }
  }
}

/// Prints the kGoldens initializer for the current engine (see file header).
TEST(GoldenMetrics, DISABLED_RegenerateGoldens) {
  std::printf("  static const std::vector<Golden> kGoldens = {\n");
  for (const Golden& g : goldens()) {
    const Observed o = run_scenario(g.name);
    std::printf("      {\"%s\", %lluu, %lluu, %lluu, %lld,\n       {",
                g.name, static_cast<unsigned long long>(o.total_msgs),
                static_cast<unsigned long long>(o.total_bytes),
                static_cast<unsigned long long>(o.events),
                static_cast<long long>(o.honest_completion));
    for (std::size_t i = 0; i < o.terminated_at.size(); ++i) {
      std::printf("%s%lld", i ? ", " : "",
                  static_cast<long long>(o.terminated_at[i]));
    }
    std::printf("},\n       {");
    for (std::size_t i = 0; i < o.outputs.size(); ++i) {
      std::printf("%s%.17g", i ? ", " : "", o.outputs[i]);
    }
    std::printf("}},\n");
  }
  std::printf("  };\n");
}

}  // namespace
}  // namespace delphi::sim
