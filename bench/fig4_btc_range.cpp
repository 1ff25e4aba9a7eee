/// Regenerates Fig 4: the histogram of the per-minute Bitcoin cross-exchange
/// price range delta over two weeks, with Fréchet and Gumbel fits, the tail
/// quantiles the paper quotes (99.2 % below 100$, ~100 % below 300$), and the
/// Delta calibration at lambda = 30 bits that yields the paper's
/// Delta = 2000$ oracle configuration.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "oracle/feed.hpp"
#include "stats/evt.hpp"
#include "stats/fit.hpp"
#include "stats/summary.hpp"

using namespace delphi;
using namespace delphi::bench;

int main(int, char**) {
  print_title("Fig 4 — Bitcoin price range histogram + distribution fits",
              "two weeks of per-minute snapshots (20160 samples) from the "
              "synthetic exchange feed (range ~ Fréchet(4.41, 29.3), the "
              "paper's fitted parameters; see README.md \"Substitutions\").");

  const auto deltas = oracle::range_history(oracle::FeedConfig{}, 20'160, 4);
  const auto s = stats::summarize(deltas);
  std::printf("samples=%zu  mean=%.1f$  sd=%.1f$  min=%.1f$  max=%.1f$\n\n",
              s.count, s.mean, s.stddev, s.min, s.max);

  stats::Histogram hist(0.0, 80.0, 16);
  hist.add_all(deltas);
  std::printf("histogram of delta (USD):\n%s\n", hist.ascii(48).c_str());

  // Fit the two extreme-value families the paper compares.
  const auto fits = stats::best_fit(deltas, {"Frechet", "Gumbel"});
  std::printf("fits (Kolmogorov-Smirnov, smaller = better):\n");
  for (const auto& f : fits) {
    std::printf("  %-8s KS = %.4f", f.family.c_str(), f.ks);
    if (f.family == "Frechet") {
      const auto* fr = dynamic_cast<const stats::Frechet*>(f.dist.get());
      std::printf("   alpha = %.2f, scale = %.1f  (paper: 4.41, 29.3)",
                  fr->alpha(), fr->scale());
    }
    std::printf("\n");
  }
  std::printf("best fit: %s  (paper: Fréchet)\n\n", fits.front().family.c_str());

  // Tail quantiles the paper quotes.
  std::size_t below100 = 0, below300 = 0;
  for (double d : deltas) {
    below100 += (d < 100.0);
    below300 += (d < 300.0);
  }
  std::printf("P(delta < 100$) = %.2f%%   (paper: 99.2%%)\n",
              100.0 * below100 / deltas.size());
  std::printf("P(delta < 300$) = %.2f%%   (paper: ~100%%)\n",
              100.0 * below300 / deltas.size());

  // Delta calibration: invert the fitted Fréchet tail at lambda = 30 bits.
  const auto* fr = dynamic_cast<const stats::Frechet*>(fits.front().dist.get());
  const double alpha = fr ? fr->alpha() : 4.41;
  const double scale = fr ? fr->scale() : 29.3;
  const double delta_cap = stats::range_bound_frechet(alpha, scale, 1, 30.0);
  std::printf(
      "\nDelta calibration at lambda = 30 bits: Delta = %.0f$  (paper picks "
      "2000$; one violation expected every ~2000 years of per-minute "
      "runs)\n",
      delta_cap);
  return 0;
}
