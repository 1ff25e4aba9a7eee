#include "bench/bench_util.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>

namespace delphi::bench {

namespace {
/// Common spec scaffold: sim substrate, explicit inputs (the benches control
/// their workloads exactly).
scenario::ScenarioSpec base_spec(const char* protocol, Testbed tb,
                                 std::size_t n, std::uint64_t seed,
                                 const std::vector<double>& inputs) {
  scenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.substrate = scenario::Substrate::kSim;
  spec.testbed = tb;
  spec.n = n;
  spec.seed = seed;
  spec.inputs = inputs;
  return spec;
}
}  // namespace

scenario::ScenarioSpec delphi_spec(Testbed tb, std::size_t n,
                                   std::uint64_t seed,
                                   const protocol::DelphiParams& params,
                                   const std::vector<double>& inputs) {
  auto spec = base_spec("delphi", tb, n, seed, inputs);
  spec.params["space-min"] = params.space_min;
  spec.params["space-max"] = params.space_max;
  spec.params["rho0"] = params.rho0;
  spec.params["eps"] = params.eps;
  spec.params["delta-max"] = params.delta_max;
  return spec;
}

scenario::ScenarioSpec abraham_spec(Testbed tb, std::size_t n,
                                    std::uint64_t seed, std::uint32_t rounds,
                                    double space_min, double space_max,
                                    const std::vector<double>& inputs) {
  auto spec = base_spec("abraham", tb, n, seed, inputs);
  spec.params["rounds"] = rounds;
  spec.params["space-min"] = space_min;
  spec.params["space-max"] = space_max;
  return spec;
}

scenario::ScenarioSpec fin_spec(Testbed tb, std::size_t n, std::uint64_t seed,
                                const std::vector<double>& inputs,
                                SimTime coin_cost_us) {
  auto spec = base_spec("fin", tb, n, seed, inputs);
  if (coin_cost_us >= 0) {
    spec.params["coin-us"] = static_cast<double>(coin_cost_us);
  }
  return spec;
}

scenario::ScenarioSpec dolev_spec(Testbed tb, std::size_t n,
                                  std::uint64_t seed, std::uint32_t rounds,
                                  double space_min, double space_max,
                                  const std::vector<double>& inputs) {
  auto spec = base_spec("dolev", tb, n, seed, inputs);
  spec.params["rounds"] = rounds;
  spec.params["space-min"] = space_min;
  spec.params["space-max"] = space_max;
  return spec;
}

std::vector<FaultCase> fault_axis(const scenario::ScenarioSpec& base) {
  const auto& info =
      scenario::ProtocolRegistry::global().require(base.protocol);
  const std::size_t t =
      base.t == scenario::kAutoFaults ? info.default_faults(base.n) : base.t;
  const auto ts = std::to_string(t);

  std::vector<FaultCase> axis;
  const auto add = [&](std::string name, const char* adversary,
                       const char* byzantine, std::size_t crashes) {
    FaultCase fc{std::move(name), base};
    fc.spec.crashes = crashes;
    fc.spec.adversary = scenario::parse_adversary(adversary);
    fc.spec.byzantine = scenario::parse_byzantine(byzantine);
    axis.push_back(std::move(fc));
  };
  add("fault-free", "none", "none", 0);
  if (t >= 1) {
    add("crash(" + ts + ")", "none", "none", t);
    add("crash-after(50," + ts + ")", "none",
        ("crash-after:50:" + ts).c_str(), 0);
    add("garbage(64," + ts + ")", "none", ("garbage:64:" + ts).c_str(), 0);
    add("targeted-lag(" + ts + ",100ms)",
        ("targeted-lag:" + ts + ":100000").c_str(), "none", 0);
    add("partition(" + ts + ",500ms)",
        ("partition:" + ts + ":500000").c_str(), "none", 0);
  }
  add("random-delay(50ms)", "random-delay:50000", "none", 0);
  add("burst(20ms)", "burst:20000", "none", 0);
  return axis;
}

bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

bool xl_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--xl") == 0) return true;
  }
  return false;
}

void print_title(const std::string& title, const std::string& subtitle) {
  std::printf("\n==== %s ====\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

std::string fmt_int(std::uint64_t v) { return std::to_string(v); }

}  // namespace delphi::bench
