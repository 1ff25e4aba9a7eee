/// Cross-module integration tests: all three convex-agreement protocols on
/// the same workloads, comparing their guarantees and cost profiles — the
/// qualitative content of the paper's Table I, validated in miniature.

#include <gtest/gtest.h>

#include <algorithm>

#include "acs/acs.hpp"
#include "delphi/delphi.hpp"
#include "oracle/feed.hpp"
#include "sim/byzantine.hpp"
#include "stats/summary.hpp"
#include "tests/test_util.hpp"

namespace delphi {
namespace {

std::vector<double> oracle_inputs(std::size_t n, std::uint64_t seed) {
  oracle::PriceFeed feed(oracle::FeedConfig{}, Rng(seed));
  const auto snapshot = feed.next_minute();
  Rng rng(seed + 1);
  std::vector<double> inputs(n);
  for (auto& v : inputs) v = oracle::node_observation(snapshot, 3, rng);
  return inputs;
}

protocol::DelphiParams oracle_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 200'000.0;
  p.rho0 = 2.0;
  p.eps = 2.0;
  p.delta_max = 2000.0;
  return p;
}

scenario::ScenarioSpec delphi_spec(scenario::ScenarioSpec spec,
                                   const std::vector<double>& inputs) {
  test::set_delphi_params(spec, oracle_params());
  spec.inputs = inputs;
  return spec;
}

scenario::RunReport run_delphi(std::size_t n, std::uint64_t seed,
                               const std::vector<double>& inputs) {
  return scenario::SimRuntime().run(
      delphi_spec(test::async_spec("delphi", n, seed), inputs));
}

/// ACS outputs in node order. Session 0 is not a registry spec (the
/// registry's ACS session is the spec seed), so this drives the simulator.
std::vector<double> run_acs(std::size_t n, std::uint64_t seed,
                            const std::vector<double>& inputs,
                            const crypto::CommonCoin& coin) {
  acs::AcsProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.coin = &coin;
  sim::Simulator sim(test::async_config(n, seed));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<acs::AcsProtocol>(c, inputs[i]));
  }
  EXPECT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    if (const auto v = sim.node_as<acs::AcsProtocol>(i).output_value()) {
      outputs.push_back(*v);
    }
  }
  return outputs;
}

scenario::RunReport run_abraham(std::size_t n, std::uint64_t seed,
                                const std::vector<double>& inputs) {
  auto spec = test::async_spec("abraham", n, seed);
  spec.params = {{"rounds", 10}, {"space-min", 0.0}, {"space-max", 200'000.0}};
  spec.inputs = inputs;
  return scenario::SimRuntime().run(spec);
}

TEST(Integration, AllThreeProtocolsAgreeOnOracleWorkload) {
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 5);
  const auto s = stats::summarize(inputs);
  crypto::CommonCoin coin(123);

  const auto delphi = run_delphi(n, 1, inputs);
  const auto acs = run_acs(n, 2, inputs, coin);
  const auto abr = run_abraham(n, 3, inputs);

  for (const auto* rep : {&delphi, &abr}) {
    ASSERT_TRUE(rep->ok);
    ASSERT_EQ(rep->outputs.size(), n);
  }
  ASSERT_EQ(acs.size(), n);
  // Exact protocols stay inside [m, M]; Delphi inside the relaxed interval.
  for (double v : acs) {
    EXPECT_GE(v, s.min);
    EXPECT_LE(v, s.max);
  }
  for (double v : abr.outputs) {
    EXPECT_GE(v, s.min);
    EXPECT_LE(v, s.max);
  }
  const double relax = std::max(2.0, s.range());
  for (double v : delphi.outputs) {
    EXPECT_GE(v, s.min - relax - 1e-9);
    EXPECT_LE(v, s.max + relax + 1e-9);
  }
  // All three land near the same market price (sanity of the whole stack).
  EXPECT_NEAR(delphi.outputs[0], acs[0], relax + 2.0);
  EXPECT_NEAR(abr.outputs[0], acs[0], s.range() + 1e-9);
}

TEST(Integration, DelphiBaselineByteGapWidensWithN) {
  // Table I in miniature: Delphi's honest traffic grows ~n² (times log-factor
  // rounds) while Abraham's grows ~n³, so the byte ratio baseline/Delphi must
  // grow steadily with n. The absolute crossover happens around n ≈ 40-64
  // with the paper's oracle parameters and is demonstrated by
  // bench/table1_complexity and bench/fig6b_bandwidth.
  double prev_ratio_abr = 0.0;
  for (std::size_t n : {4u, 8u, 16u, 25u}) {
    const auto inputs = oracle_inputs(n, 11);
    const auto delphi = run_delphi(n, 21, inputs);
    const auto abr = run_abraham(n, 22, inputs);
    ASSERT_TRUE(delphi.ok);
    ASSERT_TRUE(abr.ok);
    const double ratio = static_cast<double>(abr.honest_bytes) /
                         static_cast<double>(delphi.honest_bytes);
    EXPECT_GT(ratio, prev_ratio_abr);  // the gap widens with n
    prev_ratio_abr = ratio;
  }
}

TEST(Integration, AdversarialSchedulingDoesNotBreakAnyProtocol) {
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 31);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto delphi = scenario::SimRuntime().run(delphi_spec(
        test::adversarial_spec("delphi", n, seed, /*extra=*/150'000), inputs));
    EXPECT_TRUE(delphi.ok);
    EXPECT_LE(test::spread(delphi.outputs), oracle_params().eps);

    // The registry's ACS session is the seed; its coin is seeded 31.
    auto acs_spec = test::adversarial_spec("acs", n, seed, 150'000);
    acs_spec.params["coin-seed"] = 31;
    acs_spec.inputs = inputs;
    const auto acs_run = scenario::SimRuntime().run(acs_spec);
    EXPECT_TRUE(acs_run.ok);
    EXPECT_EQ(test::spread(acs_run.outputs), 0.0);
  }
}

TEST(Integration, MixedFaultsAcrossTheStack) {
  // One crash + one garbage sprayer (t = 2 for n = 7) against Delphi on a
  // live oracle workload with targeted network lag on an honest victim.
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 41);
  auto cfg = test::async_config(n, 41);
  cfg.adversary =
      std::make_shared<sim::TargetedLagAdversary>(std::set<NodeId>{0},
                                                  200'000);
  protocol::DelphiProtocol::Config dc;
  dc.n = n;
  dc.t = max_faults(n);
  dc.params = oracle_params();

  sim::Simulator sim(cfg);
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(std::make_unique<protocol::DelphiProtocol>(dc, inputs[i]));
  }
  sim.add_node(std::make_unique<sim::SilentProtocol>());
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());

  std::vector<double> honest_inputs(inputs.begin(), inputs.begin() + 5);
  const auto s = stats::summarize(honest_inputs);
  const double relax = std::max(dc.params.rho0, s.range());
  for (NodeId i = 0; i + 2 < n; ++i) {
    const auto v = sim.node_as<protocol::DelphiProtocol>(i).output_value();
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, s.min - relax - 1e-9);
    EXPECT_LE(*v, s.max + relax + 1e-9);
  }
}

TEST(Integration, CrashMidBroadcastDoesNotSplitDelphi) {
  // CrashAfterProtocol wraps honest Delphi and dies mid-broadcast — the
  // remaining honest nodes must still agree.
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 51);
  protocol::DelphiProtocol::Config dc;
  dc.n = n;
  dc.t = max_faults(n);
  dc.params = oracle_params();

  sim::Simulator sim(test::async_config(n, 51));
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(std::make_unique<protocol::DelphiProtocol>(dc, inputs[i]));
  }
  for (NodeId i = static_cast<NodeId>(n) - 2; i < n; ++i) {
    sim.add_node(std::make_unique<sim::CrashAfterProtocol>(
        std::make_unique<protocol::DelphiProtocol>(dc, inputs[i]),
        /*crash_after_sends=*/i * 10));
  }
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i + 2 < n; ++i) {
    outputs.push_back(*sim.node_as<protocol::DelphiProtocol>(i).output_value());
  }
  EXPECT_LE(test::spread(outputs), dc.params.eps);
}

}  // namespace
}  // namespace delphi
