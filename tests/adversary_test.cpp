/// Tests for the network-adversary strategies (partition-until-heal and
/// burst reordering) and for protocol correctness under each of them:
/// asynchronous protocols must deliver unchanged guarantees, merely later.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "delphi/params.hpp"
#include "sim/adversary.hpp"
#include "tests/test_util.hpp"

namespace delphi::sim {
namespace {

protocol::DelphiParams delphi_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 64.0;
  return p;
}

// ------------------------------------------------------------ unit behavior

TEST(PartitionAdversary, Validation) {
  EXPECT_THROW(PartitionAdversary({0}, -1), ConfigError);
  EXPECT_THROW(PartitionAdversary({0}, 100, -1), ConfigError);
  EXPECT_NO_THROW(PartitionAdversary({0}, 100));
}

TEST(PartitionAdversary, DelaysOnlyCrossCutUntilHeal) {
  PartitionAdversary adv({0, 1}, /*heal_at=*/1'000'000, /*jitter=*/0);
  Rng rng(1);
  // Same side: never delayed.
  EXPECT_EQ(adv.extra_delay(0, 1, 0, rng), 0);
  EXPECT_EQ(adv.extra_delay(2, 3, 0, rng), 0);
  // Cross cut before heal: held exactly to the heal instant (jitter 0).
  EXPECT_EQ(adv.extra_delay(0, 2, 0, rng), 1'000'000);
  EXPECT_EQ(adv.extra_delay(3, 1, 400'000, rng), 600'000);
  // After heal: no interference.
  EXPECT_EQ(adv.extra_delay(0, 2, 1'000'000, rng), 0);
  EXPECT_EQ(adv.extra_delay(0, 2, 2'000'000, rng), 0);
}

TEST(BurstReorderAdversary, Validation) {
  EXPECT_THROW(BurstReorderAdversary(0), ConfigError);
  EXPECT_THROW(BurstReorderAdversary(-5), ConfigError);
  EXPECT_NO_THROW(BurstReorderAdversary(1000));
}

TEST(BurstReorderAdversary, EarlierSendsHeldLonger) {
  BurstReorderAdversary adv(10'000);
  Rng rng(1);
  // With jitter bounded by period/4, an early send's hold-back strictly
  // exceeds a late send's within the same window.
  const SimTime early = adv.extra_delay(0, 1, 100, rng);
  const SimTime late = adv.extra_delay(0, 1, 9'900, rng);
  EXPECT_GT(early, late);
  // Both still land after their window boundary.
  EXPECT_GE(100 + early, 10'000);
  EXPECT_GE(9'900 + late, 10'000);
}

// -------------------------------------------------- protocols under attack

/// Nodes 0..minority-1 cut off from the rest until 2 s.
scenario::ScenarioSpec partition_spec(const std::string& protocol,
                                      std::size_t n, std::uint64_t seed,
                                      std::size_t minority) {
  auto spec = test::async_spec(protocol, n, seed);
  spec.adversary = scenario::parse_adversary(
      "partition:" + std::to_string(minority) + ":2000000");
  return spec;
}

/// Every message held to the end of its 50 ms window, released LIFO.
scenario::ScenarioSpec burst_spec(const std::string& protocol, std::size_t n,
                                  std::uint64_t seed) {
  auto spec = test::async_spec(protocol, n, seed);
  spec.adversary = scenario::parse_adversary("burst:50000");
  return spec;
}

/// A Delphi spec with delphi_params on explicit inputs.
scenario::ScenarioSpec with_delphi(scenario::ScenarioSpec spec,
                                   std::vector<double> inputs) {
  test::set_delphi_params(spec, delphi_params());
  spec.inputs = std::move(inputs);
  return spec;
}

class AdversarySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversarySweep, DelphiSurvivesPartition) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  const auto p = delphi_params();
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = 400.0 + rng.uniform(0.0, 20.0);

  const auto rep = scenario::SimRuntime().run(
      with_delphi(partition_spec("delphi", n, seed, /*minority=*/2), inputs));
  ASSERT_TRUE(rep.ok);
  // Guarantees unchanged; completion necessarily after the heal.
  EXPECT_GE(rep.runtime_ms, 2'000.0);
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  const double relax = std::max(p.rho0, *mx - *mn);
  EXPECT_LE(test::spread(rep.outputs), p.eps);
  for (double o : rep.outputs) {
    EXPECT_GE(o, *mn - relax - 1e-9);
    EXPECT_LE(o, *mx + relax + 1e-9);
  }
}

TEST_P(AdversarySweep, DelphiSurvivesBurstReordering) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  std::vector<double> inputs(n);
  Rng rng(seed + 50);
  for (auto& v : inputs) v = 700.0 + rng.uniform(0.0, 8.0);

  const auto rep = scenario::SimRuntime().run(
      with_delphi(burst_spec("delphi", n, seed), inputs));
  ASSERT_TRUE(rep.ok);
  EXPECT_LE(test::spread(rep.outputs), delphi_params().eps);
}

TEST_P(AdversarySweep, DolevSurvivesPartitionWithFaults) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 11;
  const std::size_t t = 2;  // (n - 1) / 5, silent at the top ids
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = rng.uniform(100.0, 110.0);

  auto spec = partition_spec("dolev", n, seed, /*minority=*/3);
  spec.params["rounds"] = 8;
  spec.crashes = t;
  spec.inputs = inputs;
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  std::vector<double> honest_inputs(inputs.begin(), inputs.begin() + (n - t));
  const auto [mn, mx] =
      std::minmax_element(honest_inputs.begin(), honest_inputs.end());
  for (double o : rep.outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
}

TEST_P(AdversarySweep, AbrahamSurvivesPartition) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = rng.uniform(-3.0, 3.0);

  auto spec = partition_spec("abraham", n, seed, /*minority=*/2);
  spec.params = {{"rounds", 8}, {"space-min", -1e6}, {"space-max", 1e6}};
  spec.inputs = inputs;
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  for (double o : rep.outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
}

TEST_P(AdversarySweep, BinAaSurvivesBurstReordering) {
  const std::uint64_t seed = GetParam();
  auto spec = burst_spec("binaa", 7, seed);
  spec.params["r-max"] = 12;
  test::set_bit_inputs(spec, [](NodeId i) { return i % 3 == 0; });
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  EXPECT_LE(test::spread(rep.outputs), std::ldexp(1.0, -12) + 1e-12);
  for (double o : rep.outputs) {
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarySweep,
                         ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------------------- determinism

TEST(AdversaryDeterminism, IdenticalSeedsIdenticalRuns) {
  const std::size_t n = 7;
  std::vector<double> inputs(n);
  Rng rng(123);
  for (auto& v : inputs) v = 250.0 + rng.uniform(0.0, 10.0);
  const auto spec = with_delphi(partition_spec("delphi", n, 9, 2), inputs);
  // The whole report: outputs, bytes, completion time, and every node's
  // delivered count and termination time.
  const auto a = scenario::SimRuntime().run(spec);
  const auto b = scenario::SimRuntime().run(spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace delphi::sim
