/// Tests for multi-dimensional Delphi (VectorDelphiProtocol): per-coordinate
/// composition of termination, eps-agreement (in the infinity norm), and
/// relaxed box validity; channel routing; heterogeneous per-coordinate
/// parameters; Byzantine resistance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "multidim/vector_delphi.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::multidim {
namespace {

protocol::DelphiParams coord_params(double space_max = 1000.0,
                                    double delta_max = 64.0) {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = space_max;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = delta_max;
  return p;
}

/// Harvest vector outputs of honest nodes from a finished simulator run.
std::vector<std::vector<double>> vector_outputs(sim::Simulator& sim) {
  std::vector<std::vector<double>> out;
  for (NodeId i = 0; i < sim.config().n; ++i) {
    if (sim.is_byzantine(i)) continue;
    const auto* vo = dynamic_cast<const VectorOutput*>(&sim.node(i));
    if (vo == nullptr) continue;
    auto v = vo->output_vector();
    EXPECT_TRUE(v.has_value()) << "node " << i << " has no vector output";
    if (v) out.push_back(std::move(*v));
  }
  return out;
}

/// Run n VectorDelphi nodes on `inputs` and return honest outputs.
std::vector<std::vector<double>> run_vector(
    const sim::SimConfig& scfg, const VectorDelphiProtocol::Config& cfg,
    const std::vector<std::vector<double>>& inputs,
    const std::set<NodeId>& byz = {}) {
  sim::Simulator sim(scfg);
  for (NodeId i = 0; i < scfg.n; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
    } else {
      sim.add_node(std::make_unique<VectorDelphiProtocol>(cfg, inputs[i]));
    }
  }
  sim.set_byzantine(byz);
  EXPECT_TRUE(sim.run());
  return vector_outputs(sim);
}

/// Assert the composed guarantees coordinate by coordinate.
void expect_box_guarantees(const std::vector<std::vector<double>>& inputs,
                           const std::vector<std::vector<double>>& outputs,
                           const VectorDelphiProtocol::Config& cfg) {
  ASSERT_FALSE(outputs.empty());
  const std::size_t d = cfg.params.size();
  for (std::size_t c = 0; c < d; ++c) {
    std::vector<double> in_c, out_c;
    for (const auto& v : inputs) in_c.push_back(v[c]);
    for (const auto& v : outputs) {
      ASSERT_EQ(v.size(), d);
      out_c.push_back(v[c]);
    }
    const auto [mn, mx] = std::minmax_element(in_c.begin(), in_c.end());
    const double relax = std::max(cfg.params[c].rho0, *mx - *mn);
    EXPECT_LE(test::spread(out_c), cfg.params[c].eps) << "coord " << c;
    for (double o : out_c) {
      EXPECT_GE(o, *mn - relax - 1e-9) << "coord " << c;
      EXPECT_LE(o, *mx + relax + 1e-9) << "coord " << c;
    }
  }
}

// ------------------------------------------------------------- construction

TEST(VectorDelphi, RejectsZeroDimensions) {
  VectorDelphiProtocol::Config c;
  c.n = 4;
  c.t = 1;
  EXPECT_THROW(VectorDelphiProtocol(c, {}), ConfigError);
}

TEST(VectorDelphi, RejectsDimensionMismatch) {
  auto c = VectorDelphiProtocol::Config::uniform(4, 1, coord_params(), 2);
  EXPECT_THROW(VectorDelphiProtocol(c, {1.0}), ConfigError);
  EXPECT_THROW(VectorDelphiProtocol(c, {1.0, 2.0, 3.0}), ConfigError);
}

TEST(VectorDelphi, UniformConfigBuilder) {
  auto c = VectorDelphiProtocol::Config::uniform(7, 2, coord_params(), 3);
  EXPECT_EQ(c.n, 7u);
  EXPECT_EQ(c.t, 2u);
  ASSERT_EQ(c.params.size(), 3u);
  VectorDelphiProtocol p(c, {10.0, 20.0, 30.0});
  EXPECT_EQ(p.dims(), 3u);
  EXPECT_FALSE(p.terminated());
  EXPECT_FALSE(p.output_vector().has_value());
}

TEST(VectorDelphi, ChannelRoutingRejectsForeignChannel) {
  auto c = VectorDelphiProtocol::Config::uniform(4, 1, coord_params(), 2);
  VectorDelphiProtocol p(c, {1.0, 2.0});
  class NullCtx final : public net::Context {
   public:
    NodeId self() const override { return 0; }
    std::size_t n() const override { return 4; }
    SimTime now() const override { return 0; }
    void send(NodeId, std::uint32_t, net::MessagePtr) override {}
    void broadcast(std::uint32_t, net::MessagePtr) override {}
    void charge_compute(SimTime) override {}
    Rng& rng() override { return rng_; }

   private:
    Rng rng_{1};
  } ctx;
  sim::GarbageMessage g(4);
  EXPECT_THROW(p.on_message(ctx, 1, /*channel=*/2, g), ProtocolViolation);
}

// -------------------------------------------------------------- honest runs

struct VecCase {
  std::size_t n;
  std::size_t dims;
  std::uint64_t seed;
  double spread;
};

class VectorDelphiSweep : public ::testing::TestWithParam<VecCase> {};

TEST_P(VectorDelphiSweep, BoxValidityAndAgreement) {
  const auto [n, dims, seed, spread] = GetParam();
  auto cfg = VectorDelphiProtocol::Config::uniform(n, max_faults(n),
                                                   coord_params(), dims);
  std::vector<std::vector<double>> inputs(n, std::vector<double>(dims));
  Rng rng(seed);
  for (auto& v : inputs) {
    for (auto& x : v) x = 500.0 + rng.uniform(-spread / 2, spread / 2);
  }
  auto outputs =
      run_vector(test::adversarial_config(n, seed), cfg, inputs);
  ASSERT_EQ(outputs.size(), n);
  expect_box_guarantees(inputs, outputs, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VectorDelphiSweep,
    ::testing::Values(VecCase{4, 2, 21, 0.5}, VecCase{4, 2, 22, 20.0},
                      VecCase{4, 3, 23, 5.0}, VecCase{7, 2, 24, 50.0},
                      VecCase{7, 4, 25, 2.0}, VecCase{10, 2, 26, 10.0}));

TEST(VectorDelphi, HeterogeneousCoordinateParams) {
  // x: coarse dollars-scale space; y: fine meters-scale space.
  const std::size_t n = 4;
  VectorDelphiProtocol::Config cfg;
  cfg.n = n;
  cfg.t = 1;
  cfg.params = {coord_params(/*space_max=*/100000.0, /*delta_max=*/2000.0),
                coord_params(/*space_max=*/100.0, /*delta_max=*/16.0)};
  cfg.params[0].rho0 = cfg.params[0].eps = 2.0;
  cfg.params[1].rho0 = cfg.params[1].eps = 0.5;

  std::vector<std::vector<double>> inputs;
  Rng rng(31);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back({40000.0 + rng.uniform(-10.0, 10.0),
                      50.0 + rng.uniform(-1.0, 1.0)});
  }
  auto outputs = run_vector(test::async_config(n, 31), cfg, inputs);
  ASSERT_EQ(outputs.size(), n);
  expect_box_guarantees(inputs, outputs, cfg);
}

TEST(VectorDelphi, ToleratesSilentFaults) {
  const std::size_t n = 7;
  const std::size_t t = max_faults(n);
  auto cfg = VectorDelphiProtocol::Config::uniform(n, t, coord_params(), 2);
  std::vector<std::vector<double>> inputs(n, std::vector<double>(2));
  Rng rng(41);
  for (auto& v : inputs) {
    v[0] = 300.0 + rng.uniform(0.0, 4.0);
    v[1] = 700.0 + rng.uniform(0.0, 4.0);
  }
  const std::set<NodeId> byz = {5, 6};
  auto outputs =
      run_vector(test::adversarial_config(n, 41), cfg, inputs, byz);
  ASSERT_EQ(outputs.size(), n - t);
  std::vector<std::vector<double>> honest_inputs(inputs.begin(),
                                                 inputs.begin() + (n - t));
  expect_box_guarantees(honest_inputs, outputs, cfg);
}

TEST(VectorDelphi, CoordinateDiagnosticsExposed) {
  const std::size_t n = 4;
  auto cfg = VectorDelphiProtocol::Config::uniform(n, 1, coord_params(), 2);
  sim::Simulator sim(test::async_config(n, 51));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<VectorDelphiProtocol>(
        cfg, std::vector<double>{100.0 + i, 200.0 + i}));
  }
  ASSERT_TRUE(sim.run());
  const auto& p = sim.node_as<VectorDelphiProtocol>(0);
  EXPECT_EQ(p.dims(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& coord = p.coordinate(c);
    EXPECT_TRUE(coord.terminated());
    EXPECT_FALSE(coord.level_reports().empty());
  }
}

}  // namespace
}  // namespace delphi::multidim
