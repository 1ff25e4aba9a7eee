/// Tests for the scenario API: registry completeness, ScenarioSpec text
/// round-trip, custom registration, crash-fault wiring, spec rejections, and
/// unfinished-node reporting on TCP timeout. Running every registry entry on
/// every substrate is substrate_suite_test's job.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "sim/byzantine.hpp"
#include "transport/decoders.hpp"

namespace delphi::scenario {
namespace {

/// Small-n spec every built-in suite can run: n = 6 satisfies the 5t+1
/// protocols at t = 1 and the 3t+1 protocols at t = 1 (auto).
ScenarioSpec small_spec(const std::string& protocol) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.testbed = TestbedKind::kAsync;
  spec.n = 6;
  spec.seed = 7;
  return spec;
}

// ------------------------------------------------------------- registry

TEST(Registry, CoversEveryProtocolSuite) {
  const auto names = ProtocolRegistry::global().names();
  for (const char* expected :
       {"aba", "abraham", "acs", "benor", "binaa", "delphi", "dolev", "dora",
        "fin", "multidim", "rbc"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "missing registry entry: " << expected;
  }
}

TEST(Registry, UnknownProtocolThrowsWithKnownNames) {
  try {
    SimRuntime().run(small_spec("nonesuch"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("delphi"), std::string::npos);
  }
}

TEST(Registry, RejectsDuplicateAndIncompleteEntries) {
  ProtocolRegistry reg;
  ProtocolInfo incomplete;
  EXPECT_THROW(reg.add("x", incomplete), ConfigError);

  ProtocolInfo ok;
  ok.make_factory = [](const ScenarioSpec&, std::vector<double>) {
    return [](NodeId) { return std::unique_ptr<net::Protocol>(); };
  };
  ok.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::delphi();
  };
  reg.add("x", ok);
  EXPECT_THROW(reg.add("x", ok), ConfigError);
  EXPECT_NE(reg.find("x"), nullptr);
  EXPECT_EQ(reg.find("y"), nullptr);
}

// ------------------------------------------------------------- spec text

TEST(Spec, TextRoundTripIsExact) {
  ScenarioSpec spec;
  spec.protocol = "dolev";
  spec.substrate = Substrate::kTcp;
  spec.testbed = TestbedKind::kCps;
  spec.n = 11;
  spec.t = 2;
  spec.crashes = 1;
  spec.seed = 42;
  spec.center = 1000.25;
  spec.delta = 5.125;
  spec.params["rounds"] = 8;
  spec.params["space-min"] = -1e6;
  spec.params["space-max"] = 0.1;  // not exactly representable — %.17g path
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);

  // Explicit inputs (including a value needing full precision).
  spec.inputs = {1.0, 2.5, 0.1 + 0.2, -7.75, 1e-300, 40000.0, 3.0, 4.0, 5.0,
                 6.0, 7.0};
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);

  // auto fault bound round-trips too.
  spec.t = kAutoFaults;
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);
}

TEST(Spec, ParsesHandWrittenText) {
  const auto spec = ScenarioSpec::from_text(
      "protocol=abraham substrate=tcp testbed=cps n=8 seed=3 rounds=6 "
      "space-max=500");
  EXPECT_EQ(spec.protocol, "abraham");
  EXPECT_EQ(spec.substrate, Substrate::kTcp);
  EXPECT_EQ(spec.testbed, TestbedKind::kCps);
  EXPECT_EQ(spec.n, 8u);
  EXPECT_EQ(spec.t, kAutoFaults);
  EXPECT_EQ(spec.seed, 3u);
  EXPECT_EQ(spec.param("rounds", 0.0), 6.0);
  EXPECT_EQ(spec.param("space-max", 0.0), 500.0);
  EXPECT_EQ(spec.param("absent", -1.0), -1.0);
}

TEST(Spec, RejectsMalformedText) {
  EXPECT_THROW(ScenarioSpec::from_text("n"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("n=four"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("substrate=carrier-pigeon"),
               ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("testbed=gcp"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("rho0=abc"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("=3"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("n=0"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("inputs=1,2 n=3"), ConfigError);
}

TEST(Spec, MakeInputsGeneratorAndExplicit) {
  ScenarioSpec spec;
  spec.n = 8;
  spec.center = 100.0;
  spec.delta = 10.0;
  const auto gen = spec.make_inputs();
  ASSERT_EQ(gen.size(), 8u);
  const auto [mn, mx] = std::minmax_element(gen.begin(), gen.end());
  EXPECT_DOUBLE_EQ(*mx - *mn, 10.0);  // realized range exactly delta

  spec.inputs = {1, 2, 3};  // wrong size
  EXPECT_THROW(spec.make_inputs(), ConfigError);
}

// --------------------------------------------------- faults & timeouts

TEST(Runtime, CrashFaultsWorkForAnyProtocol) {
  for (const char* name : {"delphi", "dolev"}) {
    SCOPED_TRACE(name);
    auto spec = small_spec(name);
    spec.n = name == std::string("dolev") ? 11u : 7u;
    spec.crashes = 1;
    const auto rep = SimRuntime().run(spec);
    EXPECT_TRUE(rep.ok);
    // The crashed node (top id) is excluded from honest outputs.
    EXPECT_EQ(rep.outputs.size(), spec.n - 1);
    // It sent nothing.
    EXPECT_EQ(rep.nodes.back().msgs_sent, 0u);
  }
}

TEST(Runtime, TcpTimeoutReportsUnfinishedNodeIds) {
  /// Terminates on node 0 only; 1 and 2 hang forever.
  class Stuck final : public net::Protocol {
   public:
    void on_start(net::Context&) override {}
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return false; }
  };

  // A private registry keeps the never-terminating suite out of
  // ProtocolRegistry::global() (the completeness sweep iterates it).
  ProtocolRegistry reg;
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec&, std::vector<double>) {
    return [](NodeId i) -> std::unique_ptr<net::Protocol> {
      if (i == 0) return std::make_unique<sim::SilentProtocol>();
      return std::make_unique<Stuck>();
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::delphi();
  };
  reg.add("test-stuck", info);

  ScenarioSpec spec;
  spec.protocol = "test-stuck";
  spec.substrate = Substrate::kTcp;
  spec.n = 3;
  spec.params["timeout-ms"] = 300;
  const auto rep = TcpRuntime(&reg).run(spec);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.unfinished, (std::vector<NodeId>{1, 2}));
}

TEST(Runtime, RbcRejectsOutOfRangeBroadcaster) {
  auto spec = small_spec("rbc");
  spec.params["broadcaster"] = 9;  // n = 6
  EXPECT_THROW(SimRuntime().run(spec), ConfigError);
  spec.params["broadcaster"] = -1;
  EXPECT_THROW(SimRuntime().run(spec), ConfigError);
}

TEST(Runtime, BinaaCompactRunsOnlyOnSimWithFifo) {
  // compact=1 is accounted, never written, and its codec needs FIFO links:
  // every other substrate setting is a ConfigError naming the key.
  for (const char* text :
       {"protocol=binaa n=4 substrate=tcp compact=1 timeout-ms=3000",
        "protocol=binaa n=4 substrate=udp compact=1 timeout-ms=3000",
        "protocol=binaa n=4 substrate=sim compact=1"}) {
    SCOPED_TRACE(text);
    try {
      run_scenario(ScenarioSpec::from_text(text));
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("compact"), std::string::npos)
          << e.what();
    }
  }
  // bench_ablation_codec's configuration still runs.
  const auto rep = SimRuntime().run(ScenarioSpec::from_text(
      "protocol=binaa n=16 testbed=aws compact=1 fifo=1 seed=3"));
  EXPECT_TRUE(rep.ok);
}

}  // namespace
}  // namespace delphi::scenario
