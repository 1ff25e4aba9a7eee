/// Ablation: the resilience / communication / validity trade across the
/// three asynchronous AA designs the paper situates itself against (§III-A,
/// §VII):
///
///   Dolev et al. '86   n = 5t+1, pure multicast, O(n²ℓ) bits/round, strict
///                      convex validity — resilience paid for communication;
///   Abraham et al.'04  n = 3t+1, RBC + witnesses, O(n³ℓ) bits/round, strict
///                      convex validity — communication paid for resilience;
///   Delphi             n = 3t+1, checkpoint BinAA, Õ(n²) bits/round,
///                      *relaxed* validity — validity paid for both.
///
/// Two sweeps: (a) matched fault budget t (each protocol at its minimum n),
/// the "how many machines does tolerating t faults cost" view; (b) matched
/// system size n = 16, the "what does a fixed fleet buy" view.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Ablation — resilience vs communication vs validity",
              "Dolev (5t+1) / Abraham (3t+1) / Delphi (3t+1, relaxed "
              "validity) on the AWS testbed, delta = 20$ oracle workload.");

  auto params = protocol::DelphiParams::oracle_network();
  params.rho0 = 10.0;
  const std::vector<int> w = {6, 6, 24, 14, 12, 10};
  const std::vector<std::size_t> budgets =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 3, 5};

  // One spec batch: section (a) per budget t — Dolev at n = 5t+1, Abraham
  // and Delphi at n = 3t+1 — then section (b) at n = 16.
  std::vector<scenario::ScenarioSpec> specs;
  const auto add = [&](std::size_t n5, std::size_t n3, std::uint64_t seed,
                       const std::vector<double>& in5,
                       const std::vector<double>& in3) {
    specs.push_back(dolev_spec(Testbed::kAws, n5, seed, /*rounds=*/10, 0.0,
                               200'000.0, in5));
    specs.push_back(abraham_spec(Testbed::kAws, n3, seed + 1, /*rounds=*/10,
                                 0.0, 200'000.0, in3));
    specs.push_back(delphi_spec(Testbed::kAws, n3, seed + 2, params, in3));
  };
  for (std::size_t t : budgets) {
    add(5 * t + 1, 3 * t + 1, 1,
        clustered_inputs(5 * t + 1, 40'000.0, 20.0, 11 + t),
        clustered_inputs(3 * t + 1, 40'000.0, 20.0, 13 + t));
  }
  const auto in16 = clustered_inputs(16, 40'000.0, 20.0, 17);
  add(16, 16, 4, in16, in16);
  const auto results = scenario::SweepRunner().run(specs);

  const char* names[] = {"Dolev et al.", "Abraham et al.", "Delphi"};
  const char* validity[] = {"[m, M]", "[m, M]", "relaxed"};
  const auto rows = [&](std::size_t first, const std::vector<std::string>& ts) {
    for (std::size_t k = 0; k < 3; ++k) {
      const auto& r = results[first + k];
      print_row({ts[k], std::to_string(specs[first + k].n), names[k],
                 fmt(r.runtime_ms, 0), fmt(r.megabytes(), 3), validity[k]},
                w);
    }
  };

  std::printf("(a) matched fault budget t — each protocol at its minimum n\n");
  print_row({"t", "n", "protocol", "runtime_ms", "MB", "validity"}, w);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const auto t = std::to_string(budgets[i]);
    rows(3 * i, {t, t, t});
  }

  std::printf("\n(b) matched system size n = 16 — fault budget differs\n");
  print_row({"t", "n", "protocol", "runtime_ms", "MB", "validity"}, w);
  rows(3 * budgets.size(), {"3", "5", "5"});

  std::printf(
      "\nexpected shape: Dolev is the traffic floor throughout but needs\n"
      "~67%% more machines per fault; Abraham and Delphi share optimal\n"
      "resilience, with Delphi's bytes at parity or above at these small n\n"
      "(its per-round constants dominate) and pulling decisively ahead as n\n"
      "grows — table1_complexity measures the n^2.2-vs-n^3.0 separation that\n"
      "makes Delphi the large-n winner; the validity column is what it\n"
      "trades for that.\n");
  return 0;
}
