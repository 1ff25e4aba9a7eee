/// Tests for the Dolev et al. (JACM '86) AAA baseline: eps-agreement with
/// strict convex validity at n >= 5t + 1, per-round contraction, resilience
/// precondition, and behaviour under crash / equivocation / garbage faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "dolev/dolev.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::dolev {
namespace {

DolevProtocol::Config dolev_cfg(std::size_t n, std::uint32_t rounds) {
  DolevProtocol::Config c;
  c.n = n;
  c.t = DolevProtocol::max_faults_5t(n);
  c.rounds = rounds;
  c.space_min = -1e6;
  c.space_max = 1e6;
  return c;
}

/// dolev_cfg's deployment as a registry spec on explicit inputs.
scenario::ScenarioSpec with_dolev_params(scenario::ScenarioSpec spec,
                                         std::uint32_t rounds,
                                         std::vector<double> inputs) {
  spec.params = {{"rounds", rounds}, {"space-min", -1e6}, {"space-max", 1e6}};
  spec.inputs = std::move(inputs);
  return spec;
}

/// Byzantine node that multicasts a different extreme value to even and odd
/// receivers in every round it observes — the equivocation the 5t+1 bound
/// exists to absorb.
class DolevEquivocator final : public net::Protocol {
 public:
  void on_start(net::Context& ctx) override { split(ctx, 0); }
  void on_message(net::Context& ctx, NodeId /*from*/, std::uint32_t,
                  const net::MessageBody& body) override {
    if (const auto* m = dynamic_cast<const RoundValueMessage*>(&body)) {
      if (m->round() >= next_round_) {
        split(ctx, m->round());
        next_round_ = m->round() + 1;
      }
    }
  }
  bool terminated() const override { return true; }

 private:
  void split(net::Context& ctx, std::uint32_t round) {
    for (NodeId j = 0; j < ctx.n(); ++j) {
      const double v = (j % 2 == 0) ? -9e5 : 9e5;
      ctx.send(j, 0, std::make_shared<RoundValueMessage>(round, v));
    }
  }
  std::uint32_t next_round_ = 0;
};

// ------------------------------------------------------------- construction

TEST(Dolev, RejectsInsufficientResilience) {
  DolevProtocol::Config c;
  c.n = 5;
  c.t = 1;  // needs n >= 6
  EXPECT_THROW(DolevProtocol(c, 0.0), ConfigError);
  c.n = 6;
  EXPECT_NO_THROW(DolevProtocol(c, 0.0));
}

TEST(Dolev, RejectsZeroRounds) {
  auto c = dolev_cfg(6, 1);
  c.rounds = 0;
  EXPECT_THROW(DolevProtocol(c, 0.0), ConfigError);
}

TEST(Dolev, RejectsOutOfSpaceInput) {
  EXPECT_THROW(DolevProtocol(dolev_cfg(6, 1), 2e6), ConfigError);
  EXPECT_THROW(DolevProtocol(dolev_cfg(6, 1),
                             std::numeric_limits<double>::quiet_NaN()),
               ConfigError);
}

TEST(Dolev, RoundsForBudget) {
  EXPECT_EQ(DolevProtocol::rounds_for(100.0, 100.0), 1u);
  EXPECT_EQ(DolevProtocol::rounds_for(100.0, 200.0), 1u);
  EXPECT_EQ(DolevProtocol::rounds_for(256.0, 1.0), 8u);
  EXPECT_EQ(DolevProtocol::rounds_for(300.0, 1.0), 9u);
}

TEST(Dolev, MaxFaults5t) {
  EXPECT_EQ(DolevProtocol::max_faults_5t(6), 1u);
  EXPECT_EQ(DolevProtocol::max_faults_5t(10), 1u);
  EXPECT_EQ(DolevProtocol::max_faults_5t(11), 2u);
  EXPECT_EQ(DolevProtocol::max_faults_5t(16), 3u);
}

// -------------------------------------------------------------- honest runs

TEST(Dolev, IdenticalInputsStayPut) {
  const auto rep = scenario::SimRuntime().run(with_dolev_params(
      test::async_spec("dolev", 6, 7), 4, std::vector<double>(6, 42.5)));
  ASSERT_TRUE(rep.ok);
  for (double o : rep.outputs) EXPECT_DOUBLE_EQ(o, 42.5);
}

TEST(Dolev, SingleRoundHalvesRange) {
  const std::size_t n = 11;
  std::vector<double> inputs(n, 0.0);
  inputs[0] = 64.0;  // range 64
  const auto rep = scenario::SimRuntime().run(
      with_dolev_params(test::async_spec("dolev", n, 3), 1, inputs));
  ASSERT_TRUE(rep.ok);
  EXPECT_LE(test::spread(rep.outputs), 32.0);
  for (double o : rep.outputs) {
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 64.0);
  }
}

struct DolevParam {
  std::size_t n;
  std::uint64_t seed;
  double spread;
};

class DolevSweep : public ::testing::TestWithParam<DolevParam> {};

TEST_P(DolevSweep, AgreementAndStrictConvexValidity) {
  const auto [n, seed, input_spread] = GetParam();
  const std::uint32_t rounds = 10;
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = -25.0 + rng.uniform(0.0, input_spread);

  const auto rep = scenario::SimRuntime().run(with_dolev_params(
      test::adversarial_spec("dolev", n, seed), rounds, inputs));
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.outputs.size(), n);

  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  for (double o : rep.outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
  const double eps = input_spread / std::ldexp(1.0, rounds);
  EXPECT_LE(test::spread(rep.outputs), std::max(eps, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DolevSweep,
    ::testing::Values(DolevParam{6, 11, 10.0}, DolevParam{6, 12, 500.0},
                      DolevParam{11, 13, 80.0}, DolevParam{16, 14, 1.0},
                      DolevParam{16, 15, 1000.0}, DolevParam{21, 16, 250.0}));

// ------------------------------------------------------------------- faults

class DolevFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DolevFaults, ToleratesSilentFaults) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 11;
  const auto cfg = dolev_cfg(n, 8);
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = rng.uniform(10.0, 20.0);
  // t = 2 silent nodes at the top ids.
  auto spec =
      with_dolev_params(test::adversarial_spec("dolev", n, seed), 8, inputs);
  spec.crashes = cfg.t;
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);

  std::vector<double> honest_inputs(inputs.begin(),
                                    inputs.begin() + (n - cfg.t));
  const auto [mn, mx] =
      std::minmax_element(honest_inputs.begin(), honest_inputs.end());
  for (double o : rep.outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
  EXPECT_LE(test::spread(rep.outputs), 10.0 / 256.0 + 1e-9);
}

TEST_P(DolevFaults, ToleratesEquivocators) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 11;
  const auto cfg = dolev_cfg(n, 8);
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = rng.uniform(-5.0, 5.0);
  const std::set<NodeId> byz = {9, 10};  // t = 2 at the top ids

  sim::Simulator sim(test::adversarial_config(n, seed));
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<DolevEquivocator>());
    } else {
      sim.add_node(std::make_unique<DolevProtocol>(cfg, inputs[i]));
    }
  }
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());

  std::vector<double> honest_inputs(inputs.begin(),
                                    inputs.begin() + (n - cfg.t));
  const auto [mn, mx] =
      std::minmax_element(honest_inputs.begin(), honest_inputs.end());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n - cfg.t; ++i) {
    const auto o = sim.node_as<DolevProtocol>(i).output_value();
    ASSERT_TRUE(o.has_value());
    outputs.push_back(*o);
  }
  for (double o : outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
  EXPECT_LE(test::spread(outputs), 10.0 / 256.0 + 1e-9);
}

TEST_P(DolevFaults, ToleratesGarbageSprayers) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 6;
  const auto cfg = dolev_cfg(n, 6);

  // t = 1 sprayer at id 5, three junk frames per delivery.
  sim::Simulator sim(test::async_config(n, seed));
  for (NodeId i = 0; i + 1 < n; ++i) {
    sim.add_node(std::make_unique<DolevProtocol>(cfg, 100.0 + i));
  }
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>(3));
  sim.set_byzantine({5});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 1 < n; ++i) {
    const auto o = sim.node_as<DolevProtocol>(i).output_value();
    ASSERT_TRUE(o.has_value());
    EXPECT_GE(*o, 100.0);
    EXPECT_LE(*o, 100.0 + n - cfg.t - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DolevFaults, ::testing::Range<std::uint64_t>(1, 6));

// ----------------------------------------------------------- message codec

TEST(DolevCodec, RoundTrip) {
  RoundValueMessage m(42, 3.14159);
  ByteWriter w;
  m.serialize(w);
  EXPECT_EQ(w.size(), m.wire_size());
  ByteReader r(w.data());
  auto d = RoundValueMessage::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(d->round(), 42u);
  EXPECT_DOUBLE_EQ(d->value(), 3.14159);
}

TEST(DolevCodec, RejectsOutOfRangeRoundAtProtocol) {
  // Protocol-level schema check: round beyond rounds budget is a violation.
  DolevProtocol p(dolev_cfg(6, 3), 1.0);
  RoundValueMessage bad(99, 1.0);
  class NullCtx final : public net::Context {
   public:
    NodeId self() const override { return 0; }
    std::size_t n() const override { return 6; }
    SimTime now() const override { return 0; }
    void send(NodeId, std::uint32_t, net::MessagePtr) override {}
    void broadcast(std::uint32_t, net::MessagePtr) override {}
    void charge_compute(SimTime) override {}
    Rng& rng() override { return rng_; }

   private:
    Rng rng_{1};
  } ctx;
  EXPECT_THROW(p.on_message(ctx, 1, 0, bad), ProtocolViolation);
}

}  // namespace
}  // namespace delphi::dolev
