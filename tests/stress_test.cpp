/// Stress and cross-protocol consistency tests: larger systems, boundary
/// inputs, protocol-vs-protocol output comparison on identical readings, and
/// a bigger TCP cluster exercising the real-socket path under load.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "delphi/delphi.hpp"
#include "sim/byzantine.hpp"
#include "transport/decoders.hpp"
#include "transport/tcp.hpp"
#include "tests/test_util.hpp"

namespace delphi {
namespace {

protocol::DelphiParams stress_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;
  return p;
}

std::vector<double> clustered_inputs(std::size_t n, std::uint64_t seed,
                                     double center, double spread) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (auto& x : v) x = center + rng.uniform(-spread / 2, spread / 2);
  return v;
}

/// A Delphi spec with stress_params on explicit inputs.
scenario::ScenarioSpec delphi_spec(scenario::ScenarioSpec spec,
                                   std::vector<double> inputs) {
  test::set_delphi_params(spec, stress_params());
  spec.inputs = std::move(inputs);
  return spec;
}

/// Large-n network: uniform 0.1–5 ms latency, which no testbed names.
sim::SimConfig stress_config(std::size_t n, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.latency = std::make_shared<sim::UniformLatency>(100, 5'000);
  return cfg;
}

protocol::DelphiProtocol::Config delphi_cfg(std::size_t n, std::size_t t) {
  protocol::DelphiProtocol::Config c;
  c.n = n;
  c.t = t;
  c.params = stress_params();
  return c;
}

// -------------------------------------------------------------- large scale

TEST(Stress, DelphiFortyNodes) {
  const std::size_t n = 40;
  const auto p = stress_params();
  const auto inputs = clustered_inputs(n, 61, 500.0, 6.0);

  sim::Simulator sim(stress_config(n, 61));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<protocol::DelphiProtocol>(
        delphi_cfg(n, max_faults(n)), inputs[i]));
  }
  ASSERT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    outputs.push_back(*sim.node_as<protocol::DelphiProtocol>(i).output_value());
  }
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  const double relax = std::max(p.rho0, *mx - *mn);
  EXPECT_LE(test::spread(outputs), p.eps);
  for (double o : outputs) {
    EXPECT_GE(o, *mn - relax - 1e-9);
    EXPECT_LE(o, *mx + relax + 1e-9);
  }
}

TEST(Stress, DelphiFortyNodesWithMaxFaults) {
  const std::size_t n = 40;
  const std::size_t t = max_faults(n);  // 13
  const auto p = stress_params();
  const auto inputs = clustered_inputs(n, 62, 300.0, 4.0);
  std::set<NodeId> byz;  // ids 27..39, silent
  for (NodeId i = n - t; i < n; ++i) byz.insert(i);

  sim::Simulator sim(stress_config(n, 62));
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
    } else {
      sim.add_node(
          std::make_unique<protocol::DelphiProtocol>(delphi_cfg(n, t), inputs[i]));
    }
  }
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n - t; ++i) {
    const auto v = sim.node_as<protocol::DelphiProtocol>(i).output_value();
    if (v) outputs.push_back(*v);
  }
  EXPECT_EQ(outputs.size(), n - t);
  EXPECT_LE(test::spread(outputs), p.eps);
}

// ---------------------------------------------------------- boundary inputs

TEST(Stress, AllInputsAtSpaceEdges) {
  // Everyone at the lower edge; then everyone at the upper edge.
  for (const double edge : {0.0, 1000.0}) {
    const std::size_t n = 7;
    const auto p = stress_params();
    const auto rep = scenario::SimRuntime().run(delphi_spec(
        test::async_spec("delphi", n, 63), std::vector<double>(n, edge)));
    ASSERT_TRUE(rep.ok) << "edge " << edge;
    for (double o : rep.outputs) {
      EXPECT_NEAR(o, edge, p.rho0 + 1e-9) << "edge " << edge;
    }
  }
}

TEST(Stress, TwoClustersAtMaxRange) {
  // Honest inputs split into two clusters delta_max apart — the worst
  // admissible input spread; Delphi must still terminate and agree.
  const std::size_t n = 8;
  const auto p = stress_params();
  std::vector<double> inputs(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs[i] = (i < n / 2) ? 500.0 : 500.0 + p.delta_max;
  }
  const auto rep = scenario::SimRuntime().run(
      delphi_spec(test::adversarial_spec("delphi", n, 64), inputs));
  ASSERT_TRUE(rep.ok);
  EXPECT_LE(test::spread(rep.outputs), p.eps);
  for (double o : rep.outputs) {
    EXPECT_GE(o, 500.0 - p.delta_max - 1e-9);
    EXPECT_LE(o, 500.0 + 2 * p.delta_max + 1e-9);
  }
}

// ------------------------------------------------- cross-protocol agreement

TEST(Stress, AllProtocolsLandNearTheHonestCluster) {
  // Same readings through Delphi, Abraham, Dolev, and ACS-median: the exact
  // protocols stay inside [m, M]; Delphi inside the relaxed hull; and all
  // four land within (relaxed hull) of each other — the "any of these is a
  // sane oracle" sanity property.
  const std::size_t n = 11;
  const auto inputs = clustered_inputs(n, 65, 420.0, 10.0);
  const auto [mn_it, mx_it] = std::minmax_element(inputs.begin(), inputs.end());
  const double m = *mn_it, M = *mx_it;

  const auto p = stress_params();
  const auto delphi_out = scenario::SimRuntime().run(
      delphi_spec(test::async_spec("delphi", n, 65), inputs));
  // Abraham and Dolev: 8 rounds over the space [0, 1000].
  const std::map<std::string, double> rounds8 = {
      {"rounds", 8}, {"space-min", 0.0}, {"space-max", 1000.0}};
  auto abraham_spec = test::async_spec("abraham", n, 66);
  abraham_spec.params = rounds8;
  abraham_spec.inputs = inputs;
  const auto abraham_out = scenario::SimRuntime().run(abraham_spec);
  auto dolev_spec = test::async_spec("dolev", n, 67);
  dolev_spec.params = rounds8;
  dolev_spec.inputs = inputs;
  const auto dolev_out = scenario::SimRuntime().run(dolev_spec);

  ASSERT_TRUE(delphi_out.ok);
  ASSERT_TRUE(abraham_out.ok);
  ASSERT_TRUE(dolev_out.ok);

  const double delta = M - m;
  const double relax = std::max(p.rho0, delta);
  for (double o : abraham_out.outputs) {
    EXPECT_GE(o, m);
    EXPECT_LE(o, M);
  }
  for (double o : dolev_out.outputs) {
    EXPECT_GE(o, m);
    EXPECT_LE(o, M);
  }
  for (double o : delphi_out.outputs) {
    EXPECT_GE(o, m - relax - 1e-9);
    EXPECT_LE(o, M + relax + 1e-9);
  }
  // Pairwise: every pair of protocol outputs within the relaxed hull width.
  const double hull = (M + relax) - (m - relax);
  for (double a : delphi_out.outputs) {
    for (double b : abraham_out.outputs) EXPECT_LE(std::abs(a - b), hull);
    for (double b : dolev_out.outputs) EXPECT_LE(std::abs(a - b), hull);
  }
}

// ------------------------------------------------------------- TCP at load

TEST(Stress, TcpClusterTenNodesDelphi) {
  const std::size_t n = 10;
  const auto p = stress_params();
  const auto inputs = clustered_inputs(n, 68, 250.0, 5.0);

  transport::TcpCluster::Options opts;
  opts.n = n;
  opts.timeout_ms = 60'000;
  transport::TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = max_faults(n);
        c.params = p;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      },
      transport::decoders::delphi());
  ASSERT_TRUE(cluster.wait());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto& prot =
        dynamic_cast<const protocol::DelphiProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(prot.output_value().has_value());
    outputs.push_back(*prot.output_value());
    EXPECT_EQ(cluster.metrics(i).malformed_dropped, 0u);
  }
  EXPECT_LE(test::spread(outputs), p.eps);
}

}  // namespace
}  // namespace delphi
