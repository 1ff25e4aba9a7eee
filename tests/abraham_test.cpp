/// Tests for the Abraham et al. AAA baseline: eps-agreement with *strict*
/// convex validity, per-round range halving, witness-technique robustness,
/// and fault tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "abraham/abraham.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::abraham {
namespace {

AbrahamProtocol::Config abr_cfg(std::size_t n, std::uint32_t rounds) {
  AbrahamProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.rounds = rounds;
  c.space_min = -1e6;
  c.space_max = 1e6;
  return c;
}

/// abr_cfg's parameters on a registry spec.
scenario::ScenarioSpec with_abr_params(scenario::ScenarioSpec spec,
                                       std::uint32_t rounds) {
  spec.params = {{"rounds", rounds}, {"space-min", -1e6}, {"space-max", 1e6}};
  return spec;
}

/// Inputs 0, 1, ..., n-1.
std::vector<double> iota_inputs(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

struct AbrParam {
  std::size_t n;
  std::uint64_t seed;
  double spread;
};

class AbrahamSweep : public ::testing::TestWithParam<AbrParam> {};

TEST_P(AbrahamSweep, AgreementAndStrictConvexValidity) {
  const auto [n, seed, input_spread] = GetParam();
  // Range halves per round: log2(spread/eps) rounds for eps = spread/256.
  const std::uint32_t rounds = 8;
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = 50.0 + rng.uniform(0.0, input_spread);

  auto spec = with_abr_params(test::adversarial_spec("abraham", n, seed), rounds);
  spec.inputs = inputs;
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.outputs.size(), n);

  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  // Strict convex validity — no relaxation at all (Table I).
  for (double o : rep.outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
  // eps-agreement: range shrinks at least 2x per round.
  const double eps = input_spread / std::ldexp(1.0, rounds);
  EXPECT_LE(test::spread(rep.outputs), std::max(eps, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AbrahamSweep,
    ::testing::Values(AbrParam{4, 1, 10.0}, AbrParam{4, 2, 100.0},
                      AbrParam{7, 3, 10.0}, AbrParam{7, 4, 1.0},
                      AbrParam{10, 5, 50.0}, AbrParam{13, 6, 10.0}),
    [](const auto& test_info) {
      return "n" + std::to_string(test_info.param.n) + "_s" +
             std::to_string(test_info.param.seed);
    });

TEST(Abraham, ToleratesCrashFaults) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 7;
    const std::set<NodeId> byz = {5, 6};  // t = 2 at the top ids
    std::vector<double> inputs(n);
    Rng rng(seed);
    for (auto& v : inputs) v = rng.uniform(0.0, 20.0);

    sim::Simulator sim(test::adversarial_config(n, seed));
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) {
        sim.add_node(std::make_unique<sim::SilentProtocol>());
      } else {
        sim.add_node(
            std::make_unique<AbrahamProtocol>(abr_cfg(n, 8), inputs[i]));
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
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) continue;
      const auto o = sim.node_as<AbrahamProtocol>(i).output_value();
      ASSERT_TRUE(o.has_value());
      EXPECT_GE(*o, mn) << "seed " << seed;
      EXPECT_LE(*o, mx) << "seed " << seed;
    }
  }
}

TEST(Abraham, ByzantineExtremeValuesGetTrimmed) {
  // Byzantine nodes run honest code with wild inputs; the t-trim must keep
  // every honest output inside the honest hull.
  const std::size_t n = 7;
  sim::Simulator sim(test::adversarial_config(n, 31));
  std::vector<double> honest_inputs = {10.0, 10.5, 11.0, 11.5, 12.0};
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(
        std::make_unique<AbrahamProtocol>(abr_cfg(n, 8), honest_inputs[i]));
  }
  sim.add_node(std::make_unique<AbrahamProtocol>(abr_cfg(n, 8), 999'999.0));
  sim.add_node(std::make_unique<AbrahamProtocol>(abr_cfg(n, 8), -999'999.0));
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 2 < n; ++i) {
    const auto o = sim.node_as<AbrahamProtocol>(i).output_value();
    ASSERT_TRUE(o.has_value());
    EXPECT_GE(*o, 10.0);
    EXPECT_LE(*o, 12.0);
  }
}

TEST(Abraham, MoreRoundsTightenAgreement) {
  double prev = 1e9;
  for (std::uint32_t rounds : {1u, 3u, 6u, 9u}) {
    auto spec = with_abr_params(test::async_spec("abraham", 7, 42), rounds);
    spec.inputs = iota_inputs(7);
    const auto rep = scenario::SimRuntime().run(spec);
    ASSERT_TRUE(rep.ok);
    const double s = test::spread(rep.outputs);
    EXPECT_LE(s, prev);
    EXPECT_LE(s, 6.0 / std::ldexp(1.0, rounds));  // halving per round
    prev = s;
  }
}

TEST(Abraham, WitnessCodecRoundTrip) {
  WitnessMessage msg(3, {0, 2, 5, 9});
  ByteWriter w;
  msg.serialize(w);
  EXPECT_EQ(w.size(), msg.wire_size());
  ByteReader r(w.data());
  auto d = WitnessMessage::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(d->round(), 3u);
  EXPECT_EQ(d->ids(), (std::vector<NodeId>{0, 2, 5, 9}));
}

TEST(Abraham, MalformedWitnessesIgnored) {
  // Witness lists with duplicates / out-of-range ids / too-short lists must
  // not stall or corrupt the run (they are simply never satisfied).
  const std::size_t n = 4;
  class BadWitness final : public net::Protocol {
   public:
    void on_start(net::Context& ctx) override {
      // round-0 witness channel = n (for n=4: channel 4).
      ctx.broadcast(4, std::make_shared<WitnessMessage>(
                           0, std::vector<NodeId>{0, 0, 1}));
      ctx.broadcast(4, std::make_shared<WitnessMessage>(
                           0, std::vector<NodeId>{0, 1, 99}));
    }
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return true; }
  };
  sim::Simulator sim(test::async_config(n, 8));
  for (NodeId i = 0; i + 1 < n; ++i) {
    sim.add_node(std::make_unique<AbrahamProtocol>(abr_cfg(n, 4),
                                                   1.0 + 0.1 * i));
  }
  sim.add_node(std::make_unique<BadWitness>());
  sim.set_byzantine({3});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(sim.node_as<AbrahamProtocol>(i).terminated());
  }
}

TEST(Abraham, CommunicationIsCubicScale) {
  // O(n^3) bits per round: going 4 -> 8 nodes should multiply bytes by ~8
  // (tolerantly bracketed — constants differ).
  auto bytes_for = [](std::size_t n) {
    auto spec = with_abr_params(test::async_spec("abraham", n, 12), 4);
    spec.inputs = iota_inputs(n);
    const auto rep = scenario::SimRuntime().run(spec);
    EXPECT_TRUE(rep.ok);
    return rep.honest_bytes;
  };
  const double ratio = static_cast<double>(bytes_for(8)) /
                       static_cast<double>(bytes_for(4));
  EXPECT_GT(ratio, 4.0);   // clearly super-quadratic
  EXPECT_LT(ratio, 16.0);  // and sane
}

}  // namespace
}  // namespace delphi::abraham
