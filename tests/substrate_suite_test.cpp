/// The cross-substrate suite: the one place that asserts the simulator, TCP
/// and UDP run every registered protocol the same way. Each row is a spec;
/// each case runs it on {sim, tcp, udp} × {auth on, auth off}.
///   * Every registry entry runs fault-free at n = 6 (the 5t+1 protocols get
///     t = 1) and must finish cleanly: ok, no unfinished node, no node error,
///     no malformed frame, one output per honest node (per coordinate for
///     multidim), and nonzero honest traffic.
///   * rbc and fixed-round dolev send the same frames under every schedule,
///     so their outputs, honest bytes and honest messages must equal the
///     simulator's exactly: both sides account net::framed_size.
///   * The remaining rows pin each protocol's agreement and validity bound on
///     real sockets as well as on the simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "tests/test_util.hpp"

namespace delphi::scenario {
namespace {

/// Where every honest output must lie.
enum class Hull {
  kAny,          ///< no validity check beyond the common ones
  kInputs,       ///< [min, max] of the honest inputs
  kUnit,         ///< [0, 1] (binary approximate agreement)
  kDelphi,       ///< [min - max(rho0, delta), max + max(rho0, delta)]
  kBroadcaster,  ///< exactly node 0's input (reliable broadcast)
};

struct Row {
  std::string name;
  ScenarioSpec spec;
  /// Bound on the honest outputs' spread, per coordinate; < 0: none.
  double max_spread = -1.0;
  Hull hull = Hull::kAny;
  /// Outputs, honest bytes and honest messages equal the simulator's.
  bool parity = false;
};

std::vector<Row> rows() {
  std::vector<Row> out;
  for (const auto& name : ProtocolRegistry::global().names()) {
    Row r{name, ScenarioSpec::from_text("protocol=" + name +
                                        " testbed=async n=6 seed=7")};
    if (name == "rbc") {
      r.spec.inputs = {40012.5, 40013.0, 40011.0, 40014.5, 40012.0, 40010.5};
      r.hull = Hull::kBroadcaster;
      r.parity = true;
    } else if (name == "dolev") {
      // Unanimous inputs pin the outputs; fixed rounds pin the traffic.
      r.spec.params["rounds"] = 5;
      r.spec.inputs.assign(6, 42.0);
      r.hull = Hull::kInputs;
      r.parity = true;
    }
    out.push_back(std::move(r));
  }

  // Protocol bounds at the deployments the hand-wired TCP cluster tests
  // used (Delphi's parameters: space [0, 1000], rho0 = eps = 1, Delta = 32).
  const std::string delphi_params =
      " space-min=0 space-max=1000 rho0=1 eps=1 delta-max=32";
  out.push_back({"binaa_bound",
                 ScenarioSpec::from_text(
                     "protocol=binaa n=4 r-max=10 center=0.5 inputs=1,0,1,0"),
                 std::ldexp(1.0, -10) + 1e-12, Hull::kUnit});
  Row dolev{"dolev_bound",
            ScenarioSpec::from_text("protocol=dolev n=6 t=1 rounds=8 "
                                    "space-min=-1e6 space-max=1e6"),
            50.0 / 256.0, Hull::kInputs};
  Rng rng(77);
  for (int i = 0; i < 6; ++i) dolev.spec.inputs.push_back(rng.uniform(0.0, 50.0));
  out.push_back(std::move(dolev));
  out.push_back({"delphi_bound",
                 ScenarioSpec::from_text(
                     "protocol=delphi n=4 inputs=500,501.5,498.2,503" +
                     delphi_params),
                 1.0, Hull::kDelphi});
  out.push_back({"delphi_crash_bound",
                 ScenarioSpec::from_text(
                     "protocol=delphi n=4 crashes=1 inputs=500,501.5,498.2,503" +
                     delphi_params),
                 1.0, Hull::kDelphi});
  out.push_back({"multidim_bound",
                 ScenarioSpec::from_text(
                     "protocol=multidim n=4 dims=2 inputs=200,201,199.5,202" +
                     delphi_params),
                 1.0});
  out.push_back({"abraham_bound",
                 ScenarioSpec::from_text("protocol=abraham n=4 rounds=6 "
                                         "space-min=-1e6 space-max=1e6 "
                                         "inputs=10,12,11,13"),
                 3.0 / 64.0 + 1e-12, Hull::kInputs});
  return out;
}

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

using Case = std::tuple<Row, Substrate, bool>;

class SubstrateSuite : public ::testing::TestWithParam<Case> {};

TEST_P(SubstrateSuite, RunsCleanlyWithinItsBounds) {
  const auto& [row, substrate, auth] = GetParam();
  ScenarioSpec spec = row.spec;
  spec.substrate = substrate;
  spec.params["auth"] = auth ? 1.0 : 0.0;
  const auto rep = run_scenario(spec);

  ASSERT_TRUE(rep.ok);
  EXPECT_TRUE(rep.unfinished.empty());
  EXPECT_TRUE(rep.node_errors.empty());
  ASSERT_EQ(rep.nodes.size(), spec.n);
  for (const auto& node : rep.nodes) EXPECT_EQ(node.malformed_dropped, 0u);
  EXPECT_GT(rep.honest_msgs, 0u);
  EXPECT_GT(rep.honest_bytes, 0u);

  const std::size_t honest = spec.n - spec.crashes;
  const auto dims = static_cast<std::size_t>(
      spec.protocol == "multidim" ? spec.param("dims", 2.0) : 1.0);
  ASSERT_EQ(rep.outputs.size(), honest * dims);

  if (row.max_spread >= 0.0) {
    for (std::size_t c = 0; c < dims; ++c) {
      std::vector<double> coord;
      for (std::size_t i = c; i < rep.outputs.size(); i += dims) {
        coord.push_back(rep.outputs[i]);
      }
      EXPECT_LE(test::spread(coord), row.max_spread) << "coordinate " << c;
    }
  }

  const auto inputs = spec.make_inputs();
  const std::vector<double> honest_inputs(inputs.begin(),
                                          inputs.begin() + honest);
  const auto [mn, mx] =
      std::minmax_element(honest_inputs.begin(), honest_inputs.end());
  double lo = -INFINITY, hi = INFINITY;
  switch (row.hull) {
    case Hull::kAny:
      break;
    case Hull::kInputs:
      lo = *mn;
      hi = *mx;
      break;
    case Hull::kUnit:
      lo = 0.0;
      hi = 1.0;
      break;
    case Hull::kDelphi: {
      const double relax = std::max(spec.param("rho0", 10.0), *mx - *mn);
      lo = *mn - relax - 1e-9;
      hi = *mx + relax + 1e-9;
      break;
    }
    case Hull::kBroadcaster:
      lo = hi = inputs[0];
      break;
  }
  for (const double o : rep.outputs) {
    EXPECT_GE(o, lo);
    EXPECT_LE(o, hi);
  }

  if (row.parity) {
    ScenarioSpec sim_spec = spec;
    sim_spec.substrate = Substrate::kSim;
    const auto sim_rep = SimRuntime().run(sim_spec);
    ASSERT_TRUE(sim_rep.ok);
    EXPECT_EQ(rep.outputs, sim_rep.outputs);
    EXPECT_EQ(rep.honest_bytes, sim_rep.honest_bytes);
    EXPECT_EQ(rep.honest_msgs, sim_rep.honest_msgs);
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& c) {
  const auto& [row, substrate, auth] = c.param;
  return row.name + "_" + to_string(substrate) + (auth ? "_auth" : "_noauth");
}

INSTANTIATE_TEST_SUITE_P(
    Rows, SubstrateSuite,
    ::testing::Combine(::testing::ValuesIn(rows()),
                       ::testing::Values(Substrate::kSim, Substrate::kTcp,
                                         Substrate::kUdp),
                       ::testing::Bool()),
    case_name);

}  // namespace
}  // namespace delphi::scenario
