/// Ablation: how much of FIN's runtime is the common coin?
///
/// The paper's §I motivation: threshold-coin implementations cost O(n)
/// pairings per toss, each ~1000x a symmetric-crypto operation, and this is
/// what makes randomized protocols "computationally expensive" on CPS-class
/// hardware. This bench sweeps the simulated per-coin CPU charge from free
/// (an oracle coin) through x86-pairing to Pi-pairing costs and compares the
/// FIN-style ACS against Delphi (which never tosses a coin).
///
/// Reproduction target: on AWS (fast cores, slow WAN) the coin barely
/// matters; on CPS (slow cores, fast LAN) it dominates — the regime split of
/// Fig 6a vs Fig 6c, isolated to the single parameter that causes it.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

protocol::DelphiParams cps_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 2000.0;
  p.rho0 = 0.5;
  p.eps = 0.5;
  p.delta_max = 50.0;
  return p;
}

protocol::DelphiParams aws_params() {
  auto p = protocol::DelphiParams::oracle_network();
  p.rho0 = 10.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const std::size_t n = quick ? 16 : 40;

  print_title("Ablation — FIN runtime vs common-coin compute cost",
              "Per-pairing CPU charge swept from 0 (free oracle coin) to "
              "4 ms (Cortex-A72); a coin toss verifies n/3+1 shares. Delphi "
              "rows are coin-free references.");

  const std::vector<int> w = {8, 24, 14, 14};
  // Per-pairing µs charges: oracle, cheap x86, t2.micro, Pi-class.
  const std::vector<double> pairing_us = {0.0, 50.0, 250.0, 4000.0};

  for (const Testbed tb : {Testbed::kAws, Testbed::kCps}) {
    const char* tb_name = tb == Testbed::kAws ? "AWS" : "CPS";
    const auto params = tb == Testbed::kAws ? aws_params() : cps_params();
    const double delta = tb == Testbed::kAws ? 20.0 : 5.0;
    const double center = tb == Testbed::kAws ? 40'000.0 : 1000.0;
    const auto inputs = clustered_inputs(n, center, delta, 23);

    // One FIN run per pairing cost, then the coin-free Delphi reference.
    std::vector<scenario::ScenarioSpec> specs;
    for (double us : pairing_us) {
      const auto cost = static_cast<SimTime>(
          us * (static_cast<double>(n) / 3.0 + 1.0));
      specs.push_back(fin_spec(tb, n, 31, inputs, cost));
    }
    specs.push_back(delphi_spec(tb, n, 37, params, inputs));
    const auto results = scenario::SweepRunner().run(specs);

    std::printf("-- %s testbed, n = %zu --\n", tb_name, n);
    print_row({"testbed", "config", "runtime_ms", "vs free"}, w);
    double free_ms = 0.0;
    for (std::size_t k = 0; k < pairing_us.size(); ++k) {
      const double us = pairing_us[k];
      const auto& f = results[k];
      if (us == 0.0) free_ms = f.runtime_ms;
      print_row({tb_name, "FIN, pairing = " + fmt(us / 1000.0, 2) + " ms",
                 fmt(f.runtime_ms, 0),
                 fmt(f.runtime_ms / free_ms, 2) + "x"},
                w);
    }
    print_row({tb_name, "Delphi (no coin)", fmt(results.back().runtime_ms, 0),
               "-"},
              w);
    std::printf("\n");
  }

  std::printf(
      "expected shape: the coin charge is a rounding error on AWS (WAN RTT\n"
      "dominates) but multiplies FIN's CPS runtime several-fold at Pi-class\n"
      "pairing costs — the computational-efficiency argument of §I/§VI-D,\n"
      "isolated from every other protocol difference.\n");
  return 0;
}
