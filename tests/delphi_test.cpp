/// Tests for the Delphi protocol (Algorithm 2): termination, eps-agreement,
/// relaxed validity (Theorem IV.3), the level-weight mechanics (Lemma IV.2 /
/// Theorem IV.1), bundled-communication behaviour, and Byzantine resistance
/// (crash, garbage, value poisoning, checkpoint spam).

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>

#include "delphi/delphi.hpp"
#include "net/mux.hpp"
#include "scenario/spec.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::protocol {
namespace {

// Sanitizer builds replace malloc, so mallinfo2 says nothing about our heap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedHeap = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedHeap = true;
#else
constexpr bool kSanitizedHeap = false;
#endif
#else
constexpr bool kSanitizedHeap = false;
#endif

DelphiParams small_params(double delta_max = 64.0) {
  DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = delta_max;
  return p;
}

/// A registry spec running Delphi with `p` on explicit inputs.
scenario::ScenarioSpec with_inputs(scenario::ScenarioSpec spec,
                                   const DelphiParams& p,
                                   std::vector<double> inputs) {
  test::set_delphi_params(spec, p);
  spec.inputs = std::move(inputs);
  return spec;
}

DelphiProtocol::Config proto_cfg(std::size_t n, const DelphiParams& p) {
  DelphiProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.params = p;
  return c;
}

/// Check the paper's guarantees over the honest inputs/outputs.
void expect_guarantees(const std::vector<double>& inputs,
                       const std::vector<double>& outputs,
                       const DelphiParams& p, const std::string& tag) {
  ASSERT_FALSE(outputs.empty()) << tag;
  const auto [mn_it, mx_it] = std::minmax_element(inputs.begin(), inputs.end());
  const double delta = *mx_it - *mn_it;
  const double relax = std::max(p.rho0, delta);
  // eps-agreement (Theorem IV.4).
  EXPECT_LE(test::spread(outputs), p.eps) << tag;
  // Relaxed min-max validity (Theorem IV.3).
  for (double o : outputs) {
    EXPECT_GE(o, *mn_it - relax - 1e-9) << tag;
    EXPECT_LE(o, *mx_it + relax + 1e-9) << tag;
  }
}

struct DelphiCase {
  std::size_t n;
  std::uint64_t seed;
  double center;
  double spread;  // honest inputs uniform in [center - spread/2, ...]
};

class DelphiSweep : public ::testing::TestWithParam<DelphiCase> {};

TEST_P(DelphiSweep, TerminationAgreementValidity) {
  const auto [n, seed, center, input_spread] = GetParam();
  const DelphiParams p = small_params();
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) {
    v = center + rng.uniform(-input_spread / 2, input_spread / 2);
  }
  const auto rep = scenario::SimRuntime().run(
      with_inputs(test::adversarial_spec("delphi", n, seed), p, inputs));
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.outputs.size(), n);
  expect_guarantees(inputs, rep.outputs, p,
                    "n=" + std::to_string(n) + " seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DelphiSweep,
    ::testing::Values(
        DelphiCase{4, 1, 500.0, 0.5},    // tightly clustered
        DelphiCase{4, 2, 500.0, 8.0},    // spread over several checkpoints
        DelphiCase{4, 3, 500.0, 50.0},   // near Delta
        DelphiCase{7, 4, 100.0, 3.0},
        DelphiCase{7, 5, 100.0, 30.0},
        DelphiCase{7, 6, 997.0, 2.0},    // at the space edge
        DelphiCase{7, 7, 2.0, 3.0},      // at the lower edge
        DelphiCase{10, 8, 700.0, 10.0},
        DelphiCase{13, 9, 300.0, 20.0},
        DelphiCase{16, 10, 450.0, 5.0}),
    [](const auto& test_info) {
      return "n" + std::to_string(test_info.param.n) + "_s" +
             std::to_string(test_info.param.seed) + "_w" +
             std::to_string(static_cast<int>(test_info.param.spread));
    });

TEST(Delphi, IdenticalInputsStayWithinRho0) {
  const DelphiParams p = small_params();
  const auto rep = scenario::SimRuntime().run(with_inputs(
      test::adversarial_spec("delphi", 7, 33), p, std::vector<double>(7, 250.0)));
  ASSERT_TRUE(rep.ok);
  for (double o : rep.outputs) EXPECT_NEAR(o, 250.0, p.rho0 + 1e-9);
  EXPECT_LE(test::spread(rep.outputs), p.eps);
}

TEST(Delphi, InputOnACheckpointIsReproducedExactly) {
  // All honest on checkpoint 500 (a multiple of every rho_l): the weighted
  // average should come out at exactly 500 (weight 1 at that checkpoint).
  const DelphiParams p = small_params(/*delta_max=*/8.0);
  const auto rep = scenario::SimRuntime().run(with_inputs(
      test::async_spec("delphi", 4, 3), p, std::vector<double>(4, 500.0)));
  ASSERT_TRUE(rep.ok);
  for (double o : rep.outputs) EXPECT_NEAR(o, 500.0, p.rho0);
}

TEST(Delphi, LevelWeightsSumAtLeastHalf) {
  // Theorem IV.1: sum of w'_l >= 1/2 whenever delta <= Delta.
  const DelphiParams p = small_params();
  sim::Simulator sim(test::async_config(7, 44));
  Rng rng(44);
  std::vector<double> inputs(7);
  for (auto& v : inputs) v = 400.0 + rng.uniform(0.0, 20.0);
  for (NodeId i = 0; i < 7; ++i) {
    sim.add_node(std::make_unique<DelphiProtocol>(proto_cfg(7, p), inputs[i]));
  }
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i < 7; ++i) {
    const auto& reports = sim.node_as<DelphiProtocol>(i).level_reports();
    double sum = 0.0;
    for (const auto& r : reports) sum += r.weight_prime;
    EXPECT_GE(sum, 0.5);
  }
}

TEST(Delphi, HighLevelsCarryNoWeightWhenInputsAreTight) {
  // Lemma IV.2: for l > ceil(log2(delta/rho0)), w'_l = 0 — the
  // differentiation trick kills coarse levels.
  const DelphiParams p = small_params();
  sim::Simulator sim(test::async_config(7, 45));
  // All inputs within delta = 2 => phi = 1; levels >= 3 must have w' ~ 0.
  std::vector<double> inputs = {600.0, 600.5, 601.0, 601.5,
                                600.2, 600.9, 601.3};
  for (NodeId i = 0; i < 7; ++i) {
    sim.add_node(std::make_unique<DelphiProtocol>(proto_cfg(7, p), inputs[i]));
  }
  ASSERT_TRUE(sim.run());
  const double eps_prime = p.eps_prime(7);
  for (NodeId i = 0; i < 7; ++i) {
    const auto& reports = sim.node_as<DelphiProtocol>(i).level_reports();
    for (std::size_t l = 3; l < reports.size(); ++l) {
      EXPECT_LE(reports[l].weight_prime, 5 * eps_prime)
          << "node " << i << " level " << l;
    }
  }
}

TEST(Delphi, ActiveInstancesStayNearHonestRange) {
  // Communication efficiency hinges on only O(delta/rho_l + const)
  // checkpoints materializing per level.
  const DelphiParams p = small_params();
  sim::Simulator sim(test::async_config(7, 46));
  std::vector<double> inputs = {500.0, 501.0, 502.0, 503.0,
                                504.0, 505.0, 506.0};
  for (NodeId i = 0; i < 7; ++i) {
    sim.add_node(std::make_unique<DelphiProtocol>(proto_cfg(7, p), inputs[i]));
  }
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i < 7; ++i) {
    const auto& node = sim.node_as<DelphiProtocol>(i);
    for (std::uint32_t l = 0; l < p.num_levels(); ++l) {
      const double width = 6.0 / p.rho(l);  // delta / rho_l
      EXPECT_LE(node.active_instances(l),
                static_cast<std::size_t>(width) + 4)
          << "level " << l;
    }
  }
}

TEST(Delphi, ToleratesCrashFaults) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 7;
    const DelphiParams p = small_params();
    const std::set<NodeId> byz = {5, 6};  // t = 2 at the top ids
    std::vector<double> inputs(n);
    Rng rng(seed + 100);
    for (auto& v : inputs) v = 300.0 + rng.uniform(0.0, 10.0);

    sim::Simulator sim(test::adversarial_config(n, seed));
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) {
        sim.add_node(std::make_unique<sim::SilentProtocol>());
      } else {
        sim.add_node(
            std::make_unique<DelphiProtocol>(proto_cfg(n, p), inputs[i]));
      }
    }
    sim.set_byzantine(byz);
    ASSERT_TRUE(sim.run()) << "seed " << seed;

    std::vector<double> honest_inputs, outputs;
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) continue;
      honest_inputs.push_back(inputs[i]);
      outputs.push_back(*sim.node_as<DelphiProtocol>(i).output_value());
    }
    expect_guarantees(honest_inputs, outputs, p,
                      "crash seed=" + std::to_string(seed));
  }
}

TEST(Delphi, ToleratesGarbageSprayers) {
  const std::size_t n = 7;
  const DelphiParams p = small_params();
  sim::Simulator sim(test::async_config(n, 51));
  std::vector<double> inputs = {800.0, 800.4, 800.9, 801.3, 801.8};
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(std::make_unique<DelphiProtocol>(proto_cfg(n, p), inputs[i]));
  }
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i + 2 < n; ++i) {
    outputs.push_back(*sim.node_as<DelphiProtocol>(i).output_value());
  }
  expect_guarantees(inputs, outputs, p, "garbage");
}

TEST(Delphi, ByzantineExtremeInputCannotDragOutput) {
  // Byzantine nodes run the honest code with inputs far outside the honest
  // cluster: no checkpoint near them can reach a positive weight, so the
  // relaxed-validity interval around the *honest* inputs must still hold.
  const std::size_t n = 7;
  const DelphiParams p = small_params();
  sim::Simulator sim(test::adversarial_config(n, 52));
  std::vector<double> honest_inputs = {200.0, 200.5, 201.0, 201.5, 202.0};
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(
        std::make_unique<DelphiProtocol>(proto_cfg(n, p), honest_inputs[i]));
  }
  sim.add_node(std::make_unique<DelphiProtocol>(proto_cfg(n, p), 950.0));
  sim.add_node(std::make_unique<DelphiProtocol>(proto_cfg(n, p), 5.0));
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i + 2 < n; ++i) {
    outputs.push_back(*sim.node_as<DelphiProtocol>(i).output_value());
  }
  expect_guarantees(honest_inputs, outputs, p, "extreme-byz");
}

/// Byzantine node that spams explicit entries for hundreds of checkpoints.
class CheckpointSpammer final : public net::Protocol {
 public:
  explicit CheckpointSpammer(std::uint32_t r_max) : r_max_(r_max) {}
  void on_start(net::Context& ctx) override {
    std::vector<ExplicitEcho> ex;
    const binaa::ScaledValue scale = binaa::ScaledValue{1} << r_max_;
    for (std::int64_t k = 0; k < 500; ++k) {
      ex.push_back(ExplicitEcho{0, k * 2, 1, 1, scale});
    }
    ctx.broadcast(0, std::make_shared<DelphiBundle>(std::vector<DefaultEcho>{},
                                                    std::move(ex)));
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return true; }

 private:
  std::uint32_t r_max_;
};

TEST(Delphi, CheckpointSpamIsBudgetBounded) {
  const std::size_t n = 7;
  const DelphiParams p = small_params();

  auto run_with = [&](bool spam) {
    sim::Simulator sim(test::async_config(n, 53));
    std::vector<double> inputs = {400.0, 400.2, 400.4, 400.6, 400.8, 401.0};
    for (NodeId i = 0; i + 1 < n; ++i) {
      sim.add_node(
          std::make_unique<DelphiProtocol>(proto_cfg(n, p), inputs[i]));
    }
    if (spam) {
      sim.add_node(std::make_unique<CheckpointSpammer>(
          DelphiProtocol(proto_cfg(n, p), 400.0).r_max()));
    } else {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
    }
    sim.set_byzantine({static_cast<NodeId>(n - 1)});
    EXPECT_TRUE(sim.run());
    std::uint64_t honest_bytes = 0;
    std::vector<double> outputs;
    for (NodeId i = 0; i + 1 < n; ++i) {
      honest_bytes += sim.node_metrics(i).bytes_sent;
      outputs.push_back(*sim.node_as<DelphiProtocol>(i).output_value());
    }
    expect_guarantees(inputs, outputs, p, spam ? "spam" : "baseline");
    return honest_bytes;
  };

  const auto baseline = run_with(false);
  const auto spammed = run_with(true);
  // The mention budget caps the blowup: well under the 500 instances the
  // attacker requested (budget is ~132 at level 0 for Delta=64).
  EXPECT_LT(spammed, baseline * 40);
}

TEST(Delphi, BundleCodecRoundTrip) {
  std::vector<DefaultEcho> defs = {{0, 1, 1, 0}, {3, 2, 5, 0}};
  std::vector<ExplicitEcho> exps = {{0, 500, 1, 1, 1024},
                                    {2, -17, 2, 3, 0},
                                    {6, 15, 1, 9, 4096}};
  DelphiBundle bundle(defs, exps);
  ByteWriter w;
  bundle.serialize(w);
  EXPECT_EQ(w.size(), bundle.wire_size());
  ByteReader r(w.data());
  auto d = DelphiBundle::decode(r);
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(d->defaults().size(), 2u);
  ASSERT_EQ(d->explicits().size(), 3u);
  EXPECT_EQ(d->explicits()[1].k, -17);
  EXPECT_EQ(d->explicits()[2].value, 4096);
  EXPECT_EQ(d->defaults()[1].level, 3u);
}

TEST(Delphi, BundleDecodeRejectsOverflowCounts) {
  ByteWriter w;
  w.uvarint(1'000'000);  // claims a million defaults with no bytes
  ByteReader r(w.data());
  EXPECT_THROW(DelphiBundle::decode(r), Error);
}

TEST(Delphi, DeterministicAcrossRuns) {
  const DelphiParams p = small_params();
  std::vector<double> inputs;
  for (NodeId i = 0; i < 7; ++i) inputs.push_back(100.0 + i * 0.75);
  const auto spec =
      with_inputs(test::adversarial_spec("delphi", 7, 99), p, inputs);
  // The whole report: outputs, bytes, and every node's counters and
  // termination time.
  EXPECT_EQ(scenario::SimRuntime().run(spec), scenario::SimRuntime().run(spec));
}

TEST(Delphi, InputOutsideSpaceRejected) {
  const DelphiParams p = small_params();
  EXPECT_THROW(DelphiProtocol(proto_cfg(4, p), -5.0), ConfigError);
  EXPECT_THROW(DelphiProtocol(proto_cfg(4, p), 1e9), ConfigError);
}

TEST(Delphi, WorksWithNegativeInputSpace) {
  DelphiParams p = small_params();
  p.space_min = -1000.0;
  p.space_max = 0.0;
  std::vector<double> inputs = {-330.0, -330.5, -331.0, -331.5};
  const auto rep = scenario::SimRuntime().run(
      with_inputs(test::async_spec("delphi", 4, 7), p, inputs));
  ASSERT_TRUE(rep.ok);
  expect_guarantees(inputs, rep.outputs, p, "negative-space");
}

/// Live heap in KB, read as the perf probe reads it: arena bytes in use plus
/// mmapped blocks.
long heap_in_use_kb() {
#if defined(__GLIBC__)
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<long>((mi.uordblks + mi.hblkhd) / 1024);
#else
  return -1;
#endif
}

TEST(Delphi, FinishedAgreementsRetainBoundedHeap) {
  // The oracle mesh is long-lived: a feed of agreements must not keep each
  // finished agreement's BinAA vote state. 64 sequential agreements at n = 4
  // (the perf tcp-feed parameters) on the simulator, nodes kept alive after
  // run(): the heap they hold is bounded per node-instance.
  if (kSanitizedHeap || heap_in_use_kb() < 0) {
    GTEST_SKIP() << "heap accounting needs glibc malloc without a sanitizer";
  }
  constexpr std::size_t n = 4;
  constexpr std::uint32_t kInstances = 64;
  DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 200'000.0;
  p.rho0 = 10.0;
  p.eps = 2.0;
  p.delta_max = 2'000.0;
  const DelphiProtocol::Config c = proto_cfg(n, p);
  std::vector<std::vector<double>> inputs;
  for (std::uint32_t sid = 0; sid < kInstances; ++sid) {
    inputs.push_back(scenario::clustered_inputs(n, 40'000.0, 20.0, 11 + sid));
  }
  net::SessionMux::Config mux;
  mux.expected = kInstances;
  mux.mode = net::SessionMux::Mode::kSequential;

  const long before_kb = heap_in_use_kb();
  sim::Simulator sim(test::async_config(n, 7));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<net::SessionMux>(
        mux, [&c, &inputs, i](std::uint32_t sid) {
          return std::make_unique<DelphiProtocol>(c, inputs[sid][i]);
        }));
  }
  ASSERT_TRUE(sim.run());
  const double kb_per_node_instance =
      static_cast<double>(heap_in_use_kb() - before_kb) / (n * kInstances);
  EXPECT_LE(kb_per_node_instance, 4.0);
  for (NodeId i = 0; i < n; ++i) {
    const auto& node = sim.node_as<net::SessionMux>(i);
    for (std::uint32_t sid = 0; sid < kInstances; ++sid) {
      ASSERT_NE(node.session(sid), nullptr);
      EXPECT_TRUE(node.session(sid)->terminated());
    }
  }
}

TEST(Delphi, SingleLevelConfiguration) {
  DelphiParams p = small_params(/*delta_max=*/1.0);  // l_M = 0
  std::vector<double> inputs;
  for (NodeId i = 0; i < 4; ++i) inputs.push_back(500.0 + i * 0.1);
  const auto rep = scenario::SimRuntime().run(
      with_inputs(test::async_spec("delphi", 4, 8), p, inputs));
  ASSERT_TRUE(rep.ok);
  expect_guarantees(inputs, rep.outputs, p, "single-level");
}

}  // namespace
}  // namespace delphi::protocol
