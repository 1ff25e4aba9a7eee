/// Property suites: end-to-end randomized sweeps tying the whole stack
/// together — inputs drawn from the noise distributions the paper assumes,
/// parameters derived through the EVT machinery (exactly the deployment
/// story of §IV-D), and the protocol guarantees checked on the result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "delphi/delphi.hpp"
#include "oracle/feed.hpp"
#include "sim/byzantine.hpp"
#include "stats/evt.hpp"
#include "stats/summary.hpp"
#include "tests/test_util.hpp"

namespace delphi {
namespace {

struct DistCase {
  const char* name;
  std::shared_ptr<stats::Distribution> noise;
  double eps;
  std::uint64_t seed;
};

class DistributionDriven : public ::testing::TestWithParam<DistCase> {};

/// The full §IV-D deployment recipe: derive Delta from the noise model via
/// the EVT range bound, sample the inputs from that very model, run Delphi,
/// and check the guarantees.
TEST_P(DistributionDriven, DerivedParametersDeliverGuarantees) {
  const auto& c = GetParam();
  const std::size_t n = 10;
  const auto params = protocol::DelphiParams::from_distribution(
      *c.noise, n, /*lambda_bits=*/20.0, c.eps,
      /*space_min=*/-1e5, /*space_max=*/1e5);

  Rng rng(c.seed);
  std::vector<double> inputs(n);
  for (auto& v : inputs) v = c.noise->sample(rng);
  const auto s = stats::summarize(inputs);
  ASSERT_LE(s.range(), params.delta_max)
      << c.name << ": EVT bound violated (should be ~never at lambda=20)";

  auto spec = test::adversarial_spec("delphi", n, c.seed);
  test::set_delphi_params(spec, params);
  spec.inputs = inputs;
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok) << c.name;
  EXPECT_LE(test::spread(rep.outputs), params.eps) << c.name;
  const double relax = std::max(params.rho0, s.range());
  for (double o : rep.outputs) {
    EXPECT_GE(o, s.min - relax - 1e-9) << c.name;
    EXPECT_LE(o, s.max + relax + 1e-9) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NoiseModels, DistributionDriven,
    ::testing::Values(
        DistCase{"normal_sensor", std::make_shared<stats::Normal>(250.0, 1.5),
                 0.5, 1},
        DistCase{"normal_wide", std::make_shared<stats::Normal>(-40.0, 8.0),
                 1.0, 2},
        DistCase{"gamma_error", std::make_shared<stats::Gamma>(30.77, 0.18),
                 0.25, 3},
        DistCase{"lognormal", std::make_shared<stats::LogNormal>(3.0, 0.1),
                 0.5, 4},
        DistCase{"gumbel_noise", std::make_shared<stats::Gumbel>(100.0, 2.0),
                 0.5, 5},
        DistCase{"uniform_noise",
                 std::make_shared<stats::Uniform>(10.0, 14.0), 0.25, 6}),
    [](const auto& test_info) { return std::string(test_info.param.name); });

/// Seed sweep: the same Delphi deployment under ten different adversarial
/// schedules must deliver the guarantees every time (and deterministically
/// per seed).
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, GuaranteesHoldUnderEverySchedule) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;

  Rng rng(seed * 17 + 3);
  std::vector<double> inputs(n);
  for (auto& v : inputs) v = 500.0 + rng.uniform(-8.0, 8.0);
  const auto s = stats::summarize(inputs);

  auto spec = test::adversarial_spec("delphi", n, seed, /*extra=*/120'000);
  test::set_delphi_params(spec, p);
  spec.inputs = inputs;
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  EXPECT_LE(test::spread(rep.outputs), p.eps);
  const double relax = std::max(p.rho0, s.range());
  for (double o : rep.outputs) {
    EXPECT_GE(o, s.min - relax - 1e-9);
    EXPECT_LE(o, s.max + relax + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

/// Mixed Byzantine battery: every generic fault strategy at once, over seeds.
class FaultBattery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultBattery, DelphiSurvivesMixedFaults) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 10;
  const std::size_t t = max_faults(n);  // 3 faults: crash + garbage + poison
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;

  protocol::DelphiProtocol::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.params = p;

  Rng rng(seed);
  std::vector<double> honest_inputs;
  sim::Simulator sim(test::adversarial_config(n, seed));
  for (NodeId i = 0; i < n - t; ++i) {
    const double v = 300.0 + rng.uniform(0.0, 6.0);
    honest_inputs.push_back(v);
    sim.add_node(std::make_unique<protocol::DelphiProtocol>(cfg, v));
  }
  sim.add_node(std::make_unique<sim::SilentProtocol>());
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.add_node(std::make_unique<protocol::DelphiProtocol>(cfg, 990.0));
  sim.set_byzantine({7, 8, 9});
  ASSERT_TRUE(sim.run()) << "seed " << seed;

  const auto s = stats::summarize(honest_inputs);
  const double relax = std::max(p.rho0, s.range());
  std::vector<double> outs;
  for (NodeId i = 0; i < n - t; ++i) {
    outs.push_back(*sim.node_as<protocol::DelphiProtocol>(i).output_value());
  }
  EXPECT_LE(test::spread(outs), p.eps) << "seed " << seed;
  for (double o : outs) {
    EXPECT_GE(o, s.min - relax - 1e-9) << "seed " << seed;
    EXPECT_LE(o, s.max + relax + 1e-9) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultBattery,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace delphi
