/// Regenerates Fig 5: the IoU histogram of drone object detections with the
/// Gamma fit, the statistics the paper quotes (mean IoU 0.87, 0.37 % of
/// detections below 0.6), and the resulting CPS Delphi configuration
/// (Delta = 50 m, rho0 = eps = 0.5 m).

#include <cstdio>

#include "bench/bench_util.hpp"
#include "drone/detection.hpp"
#include "stats/evt.hpp"
#include "stats/fit.hpp"
#include "stats/summary.hpp"

using namespace delphi;
using namespace delphi::bench;

int main(int, char**) {
  print_title("Fig 5 — IoU histogram for drone-based object detection",
              "80000 synthetic detections; IoU loss ~ Gamma per the paper's "
              "EfficientDet characterization (see README.md \"Substitutions\").");

  drone::DetectionModel model{drone::DetectionConfig{}};
  Rng rng(11);
  std::vector<double> ious(80'000);
  for (auto& v : ious) v = model.sample_iou(rng);

  const auto s = stats::summarize(ious);
  std::printf("samples=%zu  mean IoU=%.3f (paper: 0.87)  sd=%.3f\n\n",
              s.count, s.mean, s.stddev);

  stats::Histogram hist(0.5, 1.0, 20);
  hist.add_all(ious);
  std::printf("histogram of IoU:\n%s\n", hist.ascii(48).c_str());

  std::size_t below06 = 0;
  for (double v : ious) below06 += (v < 0.6);
  std::printf("P(IoU < 0.6) = %.2f%%   (paper: 0.37%%)\n\n",
              100.0 * below06 / ious.size());

  // Fit the IoU loss (1 - IoU), the quantity that is Gamma in the paper.
  std::vector<double> loss(ious.size());
  for (std::size_t i = 0; i < ious.size(); ++i) loss[i] = 1.0 - ious[i];
  const auto fits = stats::best_fit(loss, {"Gamma", "Frechet"});
  std::printf("fits of IoU loss (KS, smaller = better):\n");
  for (const auto& f : fits) {
    std::printf("  %-8s KS = %.4f\n", f.family.c_str(), f.ks);
  }
  std::printf("best fit: %s  (paper: Gamma)\n\n", fits.front().family.c_str());

  // Per-coordinate position error: d = 5.3 * (1 - IoU) + GPS.
  std::vector<double> err(20'000);
  Rng rng2(12);
  for (auto& e : err) {
    const auto obs = model.observe(drone::Vec2{0.0, 0.0}, rng2);
    e = obs.x;  // signed per-coordinate error around truth
  }
  const auto es = stats::summarize(err);
  std::printf("per-coordinate error: mean=%.2f m sd=%.2f m (paper's combined "
              "error mean ~2 m)\n",
              es.mean, es.stddev);

  // CPS Delphi configuration from the error distribution at lambda = 20.
  stats::Gamma combined(4.0, 0.45);  // conservative per-coordinate magnitude
  const double delta_cap = stats::range_bound(combined, 169, 20.0);
  std::printf(
      "range bound for n = 169 drones at lambda = 20 bits: %.1f m -> paper "
      "rounds up to Delta = 50 m, rho0 = eps = 0.5 m (our drone_cps() "
      "defaults)\n",
      delta_cap);
  return 0;
}
