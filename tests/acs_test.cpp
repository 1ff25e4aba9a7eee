/// Tests for the FIN-style ACS convex-BA baseline: agreement on the output,
/// exact convex validity (median in the honest hull — Table I), subset
/// agreement, and fault tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "acs/acs.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::acs {
namespace {

AcsProtocol::Config acs_cfg(std::size_t n, const crypto::CommonCoin* coin,
                            std::uint64_t session = 1) {
  AcsProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.coin = coin;
  c.session = session;
  return c;
}

struct AcsParam {
  std::size_t n;
  std::uint64_t seed;
};

class AcsSweep : public ::testing::TestWithParam<AcsParam> {};

TEST_P(AcsSweep, AgreementAndConvexValidity) {
  const auto [n, seed] = GetParam();
  crypto::CommonCoin coin(seed + 1000);
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = 100.0 + rng.uniform(-5.0, 5.0);

  sim::Simulator sim(test::adversarial_config(n, seed));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<AcsProtocol>(acs_cfg(n, &coin), inputs[i]));
  }
  ASSERT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto v = sim.node_as<AcsProtocol>(i).output_value();
    ASSERT_TRUE(v.has_value());
    outputs.push_back(*v);
  }

  // Exact agreement (ACS decides one set; the median is a pure function).
  for (double v : outputs) EXPECT_EQ(v, outputs[0]);
  // Exact convex validity: output within [min, max] of honest inputs.
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  EXPECT_GE(outputs[0], *mn);
  EXPECT_LE(outputs[0], *mx);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AcsSweep,
    ::testing::Values(AcsParam{4, 1}, AcsParam{4, 2}, AcsParam{7, 3},
                      AcsParam{7, 4}, AcsParam{10, 5}, AcsParam{13, 6},
                      AcsParam{16, 7}),
    [](const auto& test_info) {
      return "n" + std::to_string(test_info.param.n) + "_s" +
             std::to_string(test_info.param.seed);
    });

TEST(Acs, SubsetAgreesAcrossNodes) {
  const std::size_t n = 7;
  crypto::CommonCoin coin(55);
  sim::Simulator sim(test::adversarial_config(n, 77));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(
        std::make_unique<AcsProtocol>(acs_cfg(n, &coin), 10.0 + i));
  }
  ASSERT_TRUE(sim.run());
  const auto& s0 = sim.node_as<AcsProtocol>(0).agreed_subset();
  EXPECT_GE(s0.size(), n - max_faults(n));
  for (NodeId i = 1; i < n; ++i) {
    EXPECT_EQ(sim.node_as<AcsProtocol>(i).agreed_subset(), s0);
  }
}

TEST(Acs, ToleratesCrashFaultsAndExcludesNothingHonest) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 7;
    crypto::CommonCoin coin(seed * 13);
    const std::set<NodeId> byz = {5, 6};  // t = 2 at the top ids
    std::vector<double> inputs(n);
    Rng rng(seed);
    for (auto& v : inputs) v = 50.0 + rng.uniform(0.0, 1.0);

    sim::Simulator sim(test::adversarial_config(n, seed));
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) {
        sim.add_node(std::make_unique<sim::SilentProtocol>());
      } else {
        sim.add_node(
            std::make_unique<AcsProtocol>(acs_cfg(n, &coin), inputs[i]));
      }
    }
    sim.set_byzantine(byz);
    ASSERT_TRUE(sim.run()) << "seed " << seed;

    double mn = 1e300, mx = -1e300;
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) continue;
      mn = std::min(mn, inputs[i]);
      mx = std::max(mx, inputs[i]);
    }
    std::optional<double> first;
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) continue;
      const auto v = sim.node_as<AcsProtocol>(i).output_value();
      ASSERT_TRUE(v.has_value());
      if (!first) first = *v;
      EXPECT_EQ(*v, *first);
      EXPECT_GE(*v, mn);
      EXPECT_LE(*v, mx);
    }
  }
}

TEST(Acs, ByzantineValueCannotDragOutputOutsideHonestHull) {
  // A Byzantine node broadcasts an extreme value through its RBC slot; the
  // t-trimmed median must stay inside the honest hull.
  const std::size_t n = 7;
  crypto::CommonCoin coin(3);
  sim::Simulator sim(test::adversarial_config(n, 41));
  std::vector<double> honest_inputs;
  for (NodeId i = 0; i + 1 < n; ++i) {
    const double v = 100.0 + static_cast<double>(i) * 0.25;
    honest_inputs.push_back(v);
    sim.add_node(std::make_unique<AcsProtocol>(acs_cfg(n, &coin), v));
  }
  // The attacker runs the honest code with an absurd input — the strongest
  // value-poisoning it can do without forging messages.
  sim.add_node(std::make_unique<AcsProtocol>(acs_cfg(n, &coin), 1e9));
  sim.set_byzantine({static_cast<NodeId>(n - 1)});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 1 < n; ++i) {
    const auto v = sim.node_as<AcsProtocol>(i).output_value();
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, honest_inputs.front());
    EXPECT_LE(*v, honest_inputs.back());
  }
}

TEST(Acs, ValueCodecRejectsGarbage) {
  EXPECT_THROW(decode_value({1, 2, 3}), ProtocolViolation);
  const double nan = std::nan("");
  EXPECT_THROW(decode_value(encode_value(nan)), ProtocolViolation);
  EXPECT_DOUBLE_EQ(decode_value(encode_value(42.5)), 42.5);
}

}  // namespace
}  // namespace delphi::acs
