/// Ablation: static vs adaptive ∆ over a drifting feed.
///
/// The paper calibrates ∆ offline from two weeks of data and freezes it
/// (§VI-A). This bench quantifies what that costs when volatility drifts,
/// by replaying a three-regime feed (calm → normal → stressed) through:
///   * static-tight  — ∆ calibrated to the calm regime (cheap, unsafe);
///   * static-safe   — ∆ sized for the stressed regime (safe, always pays
///                     the full level ladder);
///   * adaptive      — src/adaptive re-fits ∆ from a rolling window.
/// Reported per config: eps-agreement violations (the δ ≤ ∆ assumption
/// breaking in practice), mean per-agreement runtime, and mean r_max
/// (the round bill ∆ drives).

#include <algorithm>
#include <cstdio>

#include "adaptive/range_estimator.hpp"
#include "bench/bench_util.hpp"
#include "stats/distributions.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

struct Tally {
  std::size_t minutes = 0;
  std::size_t violations = 0;
  double total_ms = 0.0;
  double total_rmax = 0.0;
  double total_levels = 0.0;
};

protocol::DelphiParams params_for(double delta_max) {
  auto p = protocol::DelphiParams::oracle_network();
  p.delta_max = delta_max;
  return p;
}

void tally_minute(Tally& t, const protocol::DelphiParams& p, std::size_t n,
                  const scenario::RunReport& r) {
  ++t.minutes;
  if (!r.ok || r.outputs.empty()) {
    ++t.violations;
    return;
  }
  const auto [mn, mx] = std::minmax_element(r.outputs.begin(), r.outputs.end());
  if (*mx - *mn > p.eps + 1e-9) ++t.violations;
  t.total_ms += r.runtime_ms;
  t.total_rmax += p.r_max(n);
  t.total_levels += p.num_levels();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const std::size_t n = 7;
  const std::size_t minutes = quick ? 45 : 150;

  print_title("Ablation — static vs adaptive Delta over a drifting feed",
              "Three equal volatility regimes (calm/normal/stressed); "
              "violations = minutes where outputs spread past eps because "
              "delta exceeded Delta.");

  const stats::Frechet calm(4.41, 3.0);
  const stats::Frechet normal(4.41, 29.3);
  const stats::Frechet stressed(2.5, 500.0);  // crash-day tails: δ up to ~4000$

  // Static-tight: the calm-regime calibration (lambda 20 on calm data).
  const auto tight = params_for(60.0);
  // Static-safe: sized for the stressed regime's tail.
  const auto safe = params_for(16'000.0);

  adaptive::RangeEstimator::Options opt;
  opt.window = 512;
  opt.min_samples = 16;
  opt.lambda_bits = 20.0;
  opt.fallback_delta = 60.0;
  opt.safety_factor = 1.25;
  opt.max_delta = 16'000.0;
  opt.refit_interval = 8;
  adaptive::RangeEstimator estimator(opt);

  Tally t_tight, t_safe, t_adaptive;
  // One simulated minute of one config: its tally and params, and its spec.
  std::vector<std::pair<Tally*, protocol::DelphiParams>> runs;
  std::vector<scenario::ScenarioSpec> specs;
  const auto add = [&](Tally& t, const protocol::DelphiParams& p,
                       std::uint64_t seed, double center, double delta) {
    runs.emplace_back(&t, p);
    specs.push_back(delphi_spec(Testbed::kAws, n, seed, p,
                                clustered_inputs(n, center, delta, seed)));
  };
  Rng rng(2026);
  double mid = 40'000.0;
  for (std::size_t m = 0; m < minutes; ++m) {
    const stats::Frechet& regime = m < minutes / 3
                                       ? calm
                                       : (m < 2 * minutes / 3 ? normal
                                                              : stressed);
    const double delta = regime.sample(rng);
    mid += rng.uniform(-15.0, 15.0);
    const std::uint64_t seed = 100 + m;

    add(t_tight, tight, seed, mid, delta);
    add(t_safe, safe, seed, mid, delta);
    add(t_adaptive, estimator.make_params(0.0, 200'000.0, 2.0, 2.0), seed,
        mid, delta);
    estimator.observe(delta);  // the estimator sees δ after the round
  }
  const auto results = scenario::SweepRunner().run(specs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    tally_minute(*runs[i].first, runs[i].second, n, results[i]);
  }

  const std::vector<int> w = {26, 12, 14, 12, 10};
  print_row({"config", "violations", "mean_ms", "mean_rmax", "levels"}, w);
  const auto show = [&](const char* name, const Tally& t) {
    const double ok = static_cast<double>(t.minutes - t.violations);
    print_row({name,
               fmt_int(t.violations) + "/" + fmt_int(t.minutes),
               fmt(ok > 0 ? t.total_ms / ok : 0.0, 0),
               fmt(ok > 0 ? t.total_rmax / ok : 0.0, 1),
               fmt(ok > 0 ? t.total_levels / ok : 0.0, 1)},
              w);
  };
  show("static-tight (D=60$)", t_tight);
  show("static-safe (D=16000$)", t_safe);
  show("adaptive (rolling EVT)", t_adaptive);

  std::printf(
      "\nexpected shape: static-tight violates agreement once the stressed\n"
      "regime's delta exceeds its Delta; static-safe never violates but\n"
      "pays the deepest level ladder and round bill every minute; adaptive\n"
      "sits between — near-tight cost in calm regimes, near-safe coverage\n"
      "under stress (modulo the one-regime-change lag of its window).\n");
  return 0;
}
