/// Regenerates the paper's §VI-E validity-relaxation analysis: how far
/// Delphi's output sits from the honest-input average, compared with the
/// exact convex protocols (FIN/Abraham whose outputs stay inside [m, M]).
///
/// Paper numbers: oracle network — Delphi ~25$ from the honest average in
/// expectation vs ~12.5$ for exact protocols (0.05 % of a 40000$ price);
/// drones — ~2.6 m vs ~1.3 m.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "drone/detection.hpp"
#include "oracle/feed.hpp"
#include "stats/summary.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

struct Accum {
  double delphi_dist = 0.0;
  double exact_dist = 0.0;
  double delta_sum = 0.0;
  int trials = 0;
};

/// Run Delphi (seeds delphi_seed + trial) and the exact FIN-style protocol
/// (fin_seed + trial) on every trial's inputs as one batch, and average how
/// far each output sits from the honest mean.
Accum compare(Testbed tb, const protocol::DelphiParams& params,
              std::uint64_t delphi_seed, std::uint64_t fin_seed,
              const std::vector<std::vector<double>>& trial_inputs) {
  std::vector<scenario::ScenarioSpec> specs;
  for (std::size_t t = 0; t < trial_inputs.size(); ++t) {
    const auto& in = trial_inputs[t];
    specs.push_back(delphi_spec(tb, in.size(), delphi_seed + t, params, in));
    specs.push_back(fin_spec(tb, in.size(), fin_seed + t, in));
  }
  const auto results = scenario::SweepRunner().run(specs);
  Accum acc;
  for (std::size_t t = 0; t < trial_inputs.size(); ++t) {
    const auto& d = results[2 * t];
    const auto& f = results[2 * t + 1];
    if (!d.ok || !f.ok) continue;
    const auto s = stats::summarize(trial_inputs[t]);
    acc.delphi_dist += std::fabs(d.outputs.front() - s.mean);
    acc.exact_dist += std::fabs(f.outputs.front() - s.mean);
    acc.delta_sum += s.range();
    ++acc.trials;
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const int trials = quick ? 3 : 12;
  const std::size_t n = 16;

  print_title("§VI-E — validity relaxation in practice",
              "distance of the agreed output from the honest-input average, "
              "Delphi vs an exact convex protocol (FIN-style ACS median), "
              "averaged over independent runs.");

  // ---------------------------------------------------------------- oracle
  {
    std::vector<std::vector<double>> trial_inputs;
    for (int trial = 0; trial < trials; ++trial) {
      oracle::PriceFeed feed(oracle::FeedConfig{}, Rng(100 + trial));
      const auto snapshot = feed.next_minute();
      Rng obs(200 + trial);
      std::vector<double> inputs(n);
      for (auto& v : inputs) v = oracle::node_observation(snapshot, 3, obs);
      trial_inputs.push_back(std::move(inputs));
    }
    const Accum acc = compare(Testbed::kAws,
                              protocol::DelphiParams::oracle_network(), 300,
                              400, trial_inputs);
    std::printf("oracle network (n = %zu, %d runs):\n", n, acc.trials);
    std::printf("  mean honest range delta: %.1f$  (paper: ~25$)\n",
                acc.delta_sum / acc.trials);
    std::printf("  |Delphi - honest avg|:   %.1f$  (paper: ~delta, 25$)\n",
                acc.delphi_dist / acc.trials);
    std::printf("  |exact  - honest avg|:   %.1f$  (paper: ~delta/2, 12.5$)\n",
                acc.exact_dist / acc.trials);
    std::printf("  relative error on a %.0f$ price: %.3f%%  (paper: 0.05%%)\n\n",
                40'000.0,
                100.0 * acc.delphi_dist / acc.trials / 40'000.0);
  }

  // ----------------------------------------------------------------- drone
  {
    std::vector<std::vector<double>> trial_inputs;
    drone::DetectionModel model{drone::DetectionConfig{}};
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(500 + trial);
      const drone::Vec2 gt{25.0, -40.0};
      const auto obs = drone::fleet_observations(model, gt, n, rng);
      std::vector<double> inputs(n);
      for (std::size_t i = 0; i < n; ++i) inputs[i] = obs[i].x;
      trial_inputs.push_back(std::move(inputs));
    }
    const Accum acc = compare(Testbed::kCps, protocol::DelphiParams::drone_cps(),
                              600, 700, trial_inputs);
    std::printf("drone localization, per coordinate (n = %zu, %d runs):\n", n,
                acc.trials);
    std::printf("  mean honest range delta: %.2f m (paper: ~0.92 m)\n",
                acc.delta_sum / acc.trials);
    std::printf("  |Delphi - honest avg|:   %.2f m (paper: <= ~2.6 m)\n",
                acc.delphi_dist / acc.trials);
    std::printf("  |exact  - honest avg|:   %.2f m (paper: ~1.3 m)\n",
                acc.exact_dist / acc.trials);
  }
  return 0;
}
