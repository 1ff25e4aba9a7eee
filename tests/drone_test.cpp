/// Tests for the drone application: the detection/GPS error models (Fig 5
/// structure), fleet observations, and end-to-end 2-D localization via two
/// Delphi instances.

#include <gtest/gtest.h>

#include <cmath>

#include "drone/detection.hpp"
#include "drone/localize.hpp"
#include "sim/byzantine.hpp"
#include "stats/fit.hpp"
#include "stats/summary.hpp"
#include "tests/test_util.hpp"

namespace delphi::drone {
namespace {

TEST(Detection, IoUStatisticsMatchPaper) {
  DetectionModel model{DetectionConfig{}};
  Rng rng(1);
  std::vector<double> ious(80'000);
  for (auto& v : ious) v = model.sample_iou(rng);
  const auto s = stats::summarize(ious);
  // Paper Fig 5: mean IoU 0.87, P(IoU < 0.6) ≈ 0.37 %.
  EXPECT_NEAR(s.mean, 0.87, 0.01);
  std::size_t below = 0;
  for (double v : ious) below += (v < 0.6);
  const double frac = static_cast<double>(below) / ious.size();
  EXPECT_LT(frac, 0.01);
  EXPECT_GT(frac, 0.0001);
}

TEST(Detection, IoULossIsGammaShaped) {
  // Fig 5's methodology: Gamma fits the IoU data better than Fréchet.
  DetectionModel model{DetectionConfig{}};
  Rng rng(2);
  std::vector<double> loss(20'000);
  for (auto& v : loss) v = 1.0 - model.sample_iou(rng);
  const auto fits = stats::best_fit(loss, {"Gamma", "Frechet"});
  ASSERT_EQ(fits.size(), 2u);
  EXPECT_EQ(fits.front().family, "Gamma");
}

TEST(Detection, GpsErrorMatchesFaaEnvelope) {
  DetectionModel model{DetectionConfig{}};
  Rng rng(3);
  std::vector<double> mags(100'000);
  for (auto& v : mags) v = model.sample_gps_error(rng).norm();
  const auto s = stats::summarize(mags);
  // FAA: mean ~1.3 m, < 5 m essentially always.
  EXPECT_NEAR(s.mean, 1.3, 0.1);
  std::size_t above5 = 0;
  for (double v : mags) above5 += (v > 5.0);
  EXPECT_LT(static_cast<double>(above5) / mags.size(), 2e-3);
}

TEST(Detection, ObservationsClusterAroundGroundTruth) {
  DetectionModel model{DetectionConfig{}};
  Rng rng(4);
  const Vec2 gt{120.0, -45.0};
  const auto obs = fleet_observations(model, gt, 2'000, rng);
  double sum_err = 0.0, max_err = 0.0;
  for (const auto& o : obs) {
    const double e = (o - gt).norm();
    sum_err += e;
    max_err = std::max(max_err, e);
  }
  // Paper: expected per-coordinate error ~2 m, rarely above ~10.5 m.
  EXPECT_LT(sum_err / obs.size(), 4.0);
  EXPECT_LT(max_err, 15.0);
}

TEST(Localization, FleetAgreesNearGroundTruth) {
  const std::size_t n = 7;
  DetectionModel model{DetectionConfig{}};
  Rng rng(5);
  const Vec2 gt{250.0, -100.0};
  const auto obs = fleet_observations(model, gt, n, rng);

  LocalizationProtocol::Config cfg;
  cfg.n = n;
  cfg.t = max_faults(n);
  cfg.params = protocol::DelphiParams::drone_cps();

  sim::Simulator sim(test::adversarial_config(n, 71));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<LocalizationProtocol>(cfg, obs[i]));
  }
  ASSERT_TRUE(sim.run());

  std::vector<double> xs, ys;
  for (NodeId i = 0; i < n; ++i) {
    const auto pos = sim.node_as<LocalizationProtocol>(i).position();
    ASSERT_TRUE(pos.has_value());
    xs.push_back(pos->x);
    ys.push_back(pos->y);
  }
  // eps-agreement per coordinate.
  EXPECT_LE(test::spread(xs), cfg.params.eps);
  EXPECT_LE(test::spread(ys), cfg.params.eps);
  // Validity: near the observations, hence near ground truth.
  std::vector<double> in_x, in_y;
  for (const auto& o : obs) {
    in_x.push_back(o.x);
    in_y.push_back(o.y);
  }
  const auto sx = stats::summarize(in_x);
  const auto sy = stats::summarize(in_y);
  const double relax_x = std::max(cfg.params.rho0, sx.range());
  const double relax_y = std::max(cfg.params.rho0, sy.range());
  for (double x : xs) {
    EXPECT_GE(x, sx.min - relax_x - 1e-9);
    EXPECT_LE(x, sx.max + relax_x + 1e-9);
  }
  for (double y : ys) {
    EXPECT_GE(y, sy.min - relax_y - 1e-9);
    EXPECT_LE(y, sy.max + relax_y + 1e-9);
  }
  // End-to-end: the agreed position is close to the true car location.
  const Vec2 agreed{xs[0], ys[0]};
  EXPECT_LT((agreed - gt).norm(), 10.0);
}

TEST(Localization, ToleratesCrashedDrones) {
  const std::size_t n = 7;
  DetectionModel model{DetectionConfig{}};
  Rng rng(6);
  const Vec2 gt{-30.0, 80.0};
  const auto obs = fleet_observations(model, gt, n, rng);
  const std::set<NodeId> byz = {5, 6};  // t = 2 at the top ids

  LocalizationProtocol::Config cfg;
  cfg.n = n;
  cfg.t = max_faults(n);
  cfg.params = protocol::DelphiParams::drone_cps();

  sim::Simulator sim(test::adversarial_config(n, 72));
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
    } else {
      sim.add_node(std::make_unique<LocalizationProtocol>(cfg, obs[i]));
    }
  }
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) continue;
    const auto pos = sim.node_as<LocalizationProtocol>(i).position();
    ASSERT_TRUE(pos.has_value());
    EXPECT_LT((*pos - gt).norm(), 10.0);
  }
}

TEST(Localization, LyingDroneCannotHijackThePosition) {
  // A Byzantine drone reports a position 500 m away (runs honest code with a
  // poisoned observation). The fleet's agreed position must stay near the
  // honest cluster.
  const std::size_t n = 7;
  DetectionModel model{DetectionConfig{}};
  Rng rng(7);
  const Vec2 gt{0.0, 0.0};
  auto obs = fleet_observations(model, gt, n, rng);
  obs[n - 1] = Vec2{500.0, 500.0};

  LocalizationProtocol::Config cfg;
  cfg.n = n;
  cfg.t = max_faults(n);
  cfg.params = protocol::DelphiParams::drone_cps();

  sim::Simulator sim(test::adversarial_config(n, 73));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<LocalizationProtocol>(cfg, obs[i]));
  }
  sim.set_byzantine({static_cast<NodeId>(n - 1)});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 1 < n; ++i) {
    const auto pos = sim.node_as<LocalizationProtocol>(i).position();
    ASSERT_TRUE(pos.has_value());
    EXPECT_LT((*pos - gt).norm(), 15.0);
  }
}

TEST(Vec2, Arithmetic) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  const Vec2 b = a + Vec2{1.0, -1.0};
  EXPECT_DOUBLE_EQ(b.x, 4.0);
  EXPECT_DOUBLE_EQ(b.y, 3.0);
  const Vec2 c = b - a;
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, -1.0);
}

}  // namespace
}  // namespace delphi::drone
