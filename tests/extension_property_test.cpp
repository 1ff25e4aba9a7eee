/// Property suites for the extension modules: statistical coverage of the
/// adaptive ∆ estimator, Dolev's per-round contraction rate, vector Delphi
/// under mid-run crashes, and Ben-Or under burst reordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "adaptive/range_estimator.hpp"
#include "multidim/vector_delphi.hpp"
#include "sim/byzantine.hpp"
#include "stats/distributions.hpp"
#include "tests/test_util.hpp"

namespace delphi {
namespace {

// ------------------------------------------------ adaptive: tail coverage

class AdaptiveCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdaptiveCoverage, FittedBoundCoversFutureSamples) {
  // Fit on 1500 Gumbel range samples at lambda = 10, then check the bound
  // against 20000 *future* samples: the exceedance rate must be at most
  // 2^-10 plus generous fit slack (we assert < 1%), and the bound must not
  // be vacuous (some probability mass within 3x of it).
  Rng rng(GetParam());
  const stats::Gumbel truth(40.0, 6.0);
  adaptive::RangeEstimator::Options opt;
  opt.window = 2048;
  opt.min_samples = 64;
  opt.lambda_bits = 10.0;
  opt.fallback_delta = 100.0;
  opt.safety_factor = 1.0;
  opt.refit_interval = 128;
  adaptive::RangeEstimator est(opt);
  for (int i = 0; i < 1500; ++i) {
    est.observe(std::max(0.0, truth.sample(rng)));
  }
  const double bound = est.delta_bound();

  std::size_t exceed = 0;
  const std::size_t trials = 20'000;
  for (std::size_t i = 0; i < trials; ++i) {
    if (truth.sample(rng) > bound) ++exceed;
  }
  EXPECT_LT(static_cast<double>(exceed) / trials, 0.01) << "bound " << bound;
  EXPECT_LT(bound, truth.quantile(0.999999999) * 3.0);  // not vacuous
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveCoverage,
                         ::testing::Values(11u, 12u, 13u, 14u));

// -------------------------------------------------- dolev: contraction rate

struct ContractionCase {
  std::uint32_t rounds;
  std::uint64_t seed;
};

class DolevContraction : public ::testing::TestWithParam<ContractionCase> {};

TEST_P(DolevContraction, RangeHalvesPerRound) {
  const auto [rounds, seed] = GetParam();
  const std::size_t n = 11;
  const double spread0 = 128.0;
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = rng.uniform(0.0, spread0);
  // Pin the extremes so the initial range is exactly spread0.
  inputs[0] = 0.0;
  inputs[1] = spread0;

  auto spec = test::adversarial_spec("dolev", n, seed);
  spec.params = {{"rounds", rounds}, {"space-min", -1e6}, {"space-max", 1e6}};
  spec.inputs = inputs;
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  // Contraction factor >= 2 per round (Dolev et al. Lemma 3 adapted).
  EXPECT_LE(test::spread(rep.outputs),
            spread0 / std::ldexp(1.0, rounds) + 1e-9)
      << "rounds " << rounds;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DolevContraction,
    ::testing::Values(ContractionCase{1, 1}, ContractionCase{2, 2},
                      ContractionCase{4, 3}, ContractionCase{6, 4},
                      ContractionCase{8, 5}, ContractionCase{10, 6}));

// --------------------------------------- multidim: mid-run crash tolerance

class VectorCrash : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VectorCrash, VectorDelphiSurvivesMidRunCrashes) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  const std::size_t t = max_faults(n);
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;
  auto cfg = multidim::VectorDelphiProtocol::Config::uniform(n, t, p, 2);

  std::vector<std::vector<double>> inputs(n, std::vector<double>(2));
  Rng rng(seed);
  for (auto& v : inputs) {
    v[0] = 200.0 + rng.uniform(0.0, 4.0);
    v[1] = 600.0 + rng.uniform(0.0, 4.0);
  }
  const std::set<NodeId> byz = {5, 6};  // the top t = 2 ids

  sim::Simulator sim(test::adversarial_config(n, seed));
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) {
      // Participate honestly for a while, then vanish mid-protocol.
      sim.add_node(std::make_unique<sim::CrashAfterProtocol>(
          std::make_unique<multidim::VectorDelphiProtocol>(cfg, inputs[i]),
          /*crash_after_sends=*/30 + 10 * seed));
    } else {
      sim.add_node(
          std::make_unique<multidim::VectorDelphiProtocol>(cfg, inputs[i]));
    }
  }
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());

  for (std::size_t c = 0; c < 2; ++c) {
    std::vector<double> coord;
    for (NodeId i = 0; i < n; ++i) {
      if (sim.is_byzantine(i)) continue;
      const auto out = sim.node_as<multidim::VectorDelphiProtocol>(i)
                           .output_vector();
      ASSERT_TRUE(out.has_value());
      coord.push_back((*out)[c]);
    }
    EXPECT_LE(test::spread(coord), p.eps) << "coord " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorCrash,
                         ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------- benor: hostile schedules

class BenOrSchedules : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenOrSchedules, AgreementUnderBurstReordering) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 11;
  auto spec = test::async_spec("benor", n, seed);
  spec.adversary = scenario::parse_adversary("burst:30000");
  test::set_bit_inputs(spec, [&](NodeId i) { return i < n / 2; });
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  ASSERT_FALSE(rep.outputs.empty());
  for (double o : rep.outputs) EXPECT_DOUBLE_EQ(o, rep.outputs.front());
}

TEST_P(BenOrSchedules, AgreementUnderPartition) {
  const std::uint64_t seed = GetParam();
  // Nodes {0, 1} cut off from the rest until 1 s.
  auto spec = test::async_spec("benor", 11, seed);
  spec.adversary = scenario::parse_adversary("partition:2:1000000");
  test::set_bit_inputs(spec, [](NodeId i) { return i % 2 == 0; });
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  for (double o : rep.outputs) EXPECT_DOUBLE_EQ(o, rep.outputs.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenOrSchedules,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace delphi
