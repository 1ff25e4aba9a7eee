/// Adaptive oracle: re-derive Delphi's max-range parameter ∆ online as the
/// feed's volatility drifts — the operational version of the paper's offline
/// two-week calibration (§VI-A).
///
/// A synthetic BTC feed runs through three volatility regimes. A
/// RangeEstimator watches the realized per-minute range δ, refits the
/// extreme-value family (Fréchet vs Gumbel, as in Fig 4), and rebuilds
/// DelphiParams. Every 100 "minutes" we run one Delphi agreement round with
/// the *current* parameters and report the configuration in force.
///
/// Build: cmake --build build && ./build/examples/adaptive_oracle

#include <cstdio>

#include "adaptive/range_estimator.hpp"
#include "delphi/delphi.hpp"
#include "scenario/runtime.hpp"
#include "stats/distributions.hpp"

using namespace delphi;

namespace {

/// One agreement instant: n nodes quote mid +- per-exchange deviation.
std::vector<double> draw_quotes(std::size_t n, double mid, double delta,
                                Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = mid + rng.uniform(-delta / 2.0, delta / 2.0);
  return v;
}

}  // namespace

int main() {
  const std::size_t n = 7;

  adaptive::RangeEstimator::Options opt;
  opt.window = 1440;         // one day of minutes
  opt.min_samples = 64;
  opt.lambda_bits = 20.0;
  opt.fallback_delta = 500.0;  // domain-knowledge bound until warmed up
  opt.safety_factor = 1.25;
  opt.max_delta = 2000.0;  // the paper's domain-knowledge ceiling (§VI-A)
  opt.refit_interval = 100;
  adaptive::RangeEstimator estimator(opt);

  // Three volatility regimes for the per-minute range delta (USD).
  const stats::Frechet calm(4.41, 8.0);      // quiet market
  const stats::Frechet normal(4.41, 29.3);   // the paper's fitted regime
  const stats::Frechet stressed(3.0, 120.0); // crash-day volatility

  Rng rng(2024);
  double mid = 40000.0;
  std::printf(
      "minute  regime    delta_obs   Delta_est  family   levels  output\n");

  for (int minute = 0; minute < 1200; ++minute) {
    const stats::Frechet& regime =
        minute < 400 ? calm : (minute < 800 ? normal : stressed);
    const double delta = regime.sample(rng);
    estimator.observe(delta);
    mid += rng.uniform(-20.0, 20.0);  // random-walk mid price

    if (minute % 100 != 99) continue;

    // Rebuild parameters from the current estimate and run one agreement.
    const auto params =
        estimator.make_params(/*space_min=*/0.0, /*space_max=*/200000.0,
                              /*rho0=*/2.0, /*eps=*/2.0);
    const auto quotes = draw_quotes(n, mid, delta, rng);

    scenario::ScenarioSpec spec;
    spec.protocol = "delphi";
    spec.testbed = scenario::TestbedKind::kFast;
    spec.n = n;
    spec.seed = 7000 + static_cast<std::uint64_t>(minute);
    spec.inputs = quotes;
    spec.params = {{"space-min", params.space_min},
                   {"space-max", params.space_max},
                   {"rho0", params.rho0},
                   {"eps", params.eps},
                   {"delta-max", params.delta_max}};
    const auto rep = scenario::SimRuntime().run(spec);

    const char* regime_name =
        minute < 400 ? "calm" : (minute < 800 ? "normal" : "stressed");
    std::printf("%6d  %-8s  %8.2f$  %8.1f$  %-7s  %6u  %9.2f$\n", minute + 1,
                regime_name, delta, estimator.delta_bound(),
                estimator.fitted_family().value_or("-").c_str(),
                params.num_levels(),
                rep.outputs.empty() ? -1.0 : rep.outputs[0]);
  }

  std::printf(
      "\nThe Delta estimate (and with it Delphi's level ladder) tracks the\n"
      "volatility regime: small in calm markets (fewer levels, fewer\n"
      "rounds), larger under stress (the delta <= Delta assumption stays\n"
      "safe). A static Delta would either waste rounds in calm regimes or\n"
      "break termination guarantees in stressed ones.\n");
  return 0;
}
