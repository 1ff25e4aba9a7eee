/// Regenerates Fig 7: heatmaps of Delphi's runtime against the agreement
/// ratio Delta/eps (y axis — drives the round count r_M) and the range ratio
/// delta/rho0 (x axis — drives per-round communication volume), on both
/// testbeds.
///
/// Reproduction target (shape): on AWS the runtime climbs along the
/// *agreement ratio* axis (rounds x WAN RTT dominate); on CPS it climbs along
/// the *range ratio* axis (per-round bytes through slow uplinks dominate).
///
/// Runtime note: the full CPS grid reaches the paper's extreme corner
/// (Delta/eps = 1e5, delta/rho0 = 1e3 at n = 85 -> r_M = 40 rounds and
/// hundreds of active checkpoints), which takes tens of minutes of wall
/// clock; pass --quick for a 2x2 grid that finishes in seconds.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

/// One heatmap cell: Delphi with Delta/eps = ar, delta/rho0 = rr.
scenario::ScenarioSpec cell_spec(Testbed tb, std::size_t n, double delta_max,
                                 double agreement, double range_ratio,
                                 std::uint64_t seed) {
  protocol::DelphiParams p;
  p.delta_max = delta_max;
  p.eps = delta_max / agreement;
  const double realized_delta = delta_max / 4.0;  // workload spread
  p.rho0 = std::max(realized_delta / range_ratio, 1e-6);
  if (p.rho0 > p.delta_max) p.rho0 = p.delta_max;
  p.space_min = 0.0;
  p.space_max = 64.0 * delta_max;
  const auto inputs =
      clustered_inputs(n, 8.0 * delta_max, realized_delta, seed);
  return delphi_spec(tb, n, seed, p, inputs);
}

void heatmap(Testbed tb, std::size_t n, double delta_max,
             const std::vector<double>& agreement_ratios,
             const std::vector<double>& range_ratios) {
  std::vector<scenario::ScenarioSpec> specs;
  for (double ar : agreement_ratios) {
    for (double rr : range_ratios) {
      specs.push_back(cell_spec(tb, n, delta_max, ar, rr, 17));
    }
  }
  const auto results = scenario::SweepRunner().run(specs);
  auto cell = results.begin();
  std::printf("%s, n = %zu (runtime in seconds)\n",
              tb == Testbed::kAws ? "AWS" : "CPS", n);
  std::printf("%14s", "A-ratio \\ R-ratio");
  for (double rr : range_ratios) std::printf("%10.0f", rr);
  std::printf("\n");
  for (double ar : agreement_ratios) {
    std::printf("%14.0f    ", ar);
    for (std::size_t k = 0; k < range_ratios.size(); ++k, ++cell) {
      std::printf("%10.2f", (cell->ok ? cell->runtime_ms : -1.0) / 1000.0);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Fig 7 — Delphi runtime vs agreement ratio and range ratio",
              "agreement ratio Delta/eps controls rounds; range ratio "
              "delta/rho0 controls per-round volume.");

  if (quick) {
    heatmap(Testbed::kAws, 16, 500.0, {20, 400}, {1, 20});
    heatmap(Testbed::kCps, 16, 500.0, {100, 10'000}, {1, 100});
  } else {
    // Paper grids: AWS n = 64, ratios {20..2000} x {1..90};
    //              CPS n = 85, ratios {1e2..1e5} x {1..1e3}.
    heatmap(Testbed::kAws, 64, 2000.0, {20, 100, 400, 2000}, {1, 4, 20, 90});
    heatmap(Testbed::kCps, 85, 500.0, {100, 1'000, 10'000, 100'000},
            {1, 10, 100, 1'000});
  }
  std::printf(
      "paper shape: AWS runtimes increase mainly top-to-bottom (agreement "
      "ratio / rounds); CPS runtimes increase mainly left-to-right (range "
      "ratio / per-round bytes).\n");
  return 0;
}
