/// Regenerates Fig 6a: runtime vs n on the (simulated) geo-distributed AWS
/// testbed for the oracle-network workload.
///
/// Paper config: Delphi rho0 = 10$, Delta = 2000$, eps = 2$, curves for
/// delta = 20$ and delta = 180$; baselines FIN and Abraham et al. at
/// delta = 20$.
///
/// Reproduction target (shape): Delphi is *slower* at small n (round count x
/// WAN RTT dominates), scales much flatter, and wins by roughly 3-6x at
/// n = 160; Delphi's runtime barely moves with delta on AWS.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Fig 6a — runtime vs n on AWS (oracle network)",
              "Delphi config rho0 = 10$, Delta = 2000$, eps = 2$; runtimes in "
              "milliseconds of simulated time (see README.md \"Substitutions\" "
              "for the testbed model).");

  auto params = protocol::DelphiParams::oracle_network();
  params.rho0 = 10.0;

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16, 64}
            : std::vector<std::size_t>{16, 64, 112, 160};

  const std::vector<int> w = {8, 22, 14, 12, 12};
  print_row({"n", "protocol", "runtime_ms", "MB", "ok"}, w);

  std::vector<scenario::ScenarioSpec> specs;
  for (std::size_t n : sizes) {
    const auto in20 = clustered_inputs(n, 40'000.0, 20.0, 7 + n);
    const auto in180 = clustered_inputs(n, 40'000.0, 180.0, 9 + n);
    specs.push_back(delphi_spec(Testbed::kAws, n, 1, params, in20));
    specs.push_back(delphi_spec(Testbed::kAws, n, 2, params, in180));
    specs.push_back(fin_spec(Testbed::kAws, n, 3, in20));
    specs.push_back(abraham_spec(Testbed::kAws, n, 4, /*rounds=*/10, 0.0,
                                 200'000.0, in20));
  }
  const auto results = scenario::SweepRunner().run(specs);

  const char* names[] = {"Delphi delta=20$", "Delphi delta=180$", "FIN",
                         "Abraham et al. d=20$"};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto* r = &results[4 * i];
    for (std::size_t k = 0; k < 4; ++k) {
      print_row({std::to_string(sizes[i]), names[k], fmt(r[k].runtime_ms, 0),
                 fmt(r[k].megabytes(), 2), r[k].ok ? "y" : "N"},
                w);
    }
    std::printf("  speedup at n=%zu: FIN/Delphi = %.2fx, Abraham/Delphi = "
                "%.2fx\n",
                sizes[i], r[2].runtime_ms / r[0].runtime_ms,
                r[3].runtime_ms / r[0].runtime_ms);
  }
  std::printf(
      "\npaper shape: Delphi slower at n = 16, ~3x faster than FIN and ~6x "
      "faster than Abraham at n = 160; delta barely affects Delphi on "
      "AWS.\n");
  return 0;
}
