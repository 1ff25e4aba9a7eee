#pragma once
/// \file detection.hpp
/// Synthetic drone object-detection error models — the data substrate for the
/// paper's CPS evaluation (§VI-B).
///
/// The paper characterizes two error sources for a drone estimating a car's
/// location as L_T = L_BB + L_GPS:
///  * detection error: EfficientDet's IoU follows a Gamma distribution with
///    mean 0.87 and P(IoU < 0.6) ≈ 0.37 % (Fig 5); per-coordinate position
///    error is d = 5.3 * (1 - IoU) meters (car diagonal heuristic);
///  * GPS error: FAA-reported horizontal accuracy, mean 1.3 m and < 5 m
///    99.99 % of the time, modeled Gamma (the paper's own upper-bounding
///    choice).
/// We sample both from the published parameters — the evaluation consumes the
/// models only through these distributions (README.md "Substitutions").

#include <vector>

#include "common/rng.hpp"
#include "stats/distributions.hpp"

namespace delphi::drone {

/// 2-D point/vector in meters.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  double norm() const;
};

/// IoU and error-model configuration.
struct DetectionConfig {
  /// Gamma parameters of (1 - IoU): chosen so mean(IoU) = 0.87 and
  /// P(IoU < 0.6) ≈ 0.4 % as in Fig 5.
  double iou_loss_shape = 4.0;
  double iou_loss_scale = 0.0325;
  /// Per-coordinate position error per IoU loss: d = 5.3 * (1 - IoU) m
  /// (ground-truth bounding-box diagonal of a 5 m x 2 m car).
  double meters_per_iou_loss = 5.3;
  /// Gamma parameters of the GPS horizontal error magnitude: mean 1.3 m,
  /// P(err > 5 m) ≈ 1e-4 (FAA SPS PAN report).
  double gps_shape = 4.0;
  double gps_scale = 0.325;
};

/// Samples detection + localization errors for one drone observation.
class DetectionModel {
 public:
  explicit DetectionModel(DetectionConfig cfg);

  /// Draw one IoU value in [0, 1].
  double sample_iou(Rng& rng) const;

  /// Draw one GPS error vector (magnitude Gamma, direction uniform).
  Vec2 sample_gps_error(Rng& rng) const;

  /// Full observation: ground truth + bounding-box error + GPS error.
  Vec2 observe(Vec2 ground_truth, Rng& rng) const;

  const DetectionConfig& config() const noexcept { return cfg_; }

 private:
  DetectionConfig cfg_;
  stats::Gamma iou_loss_;
  stats::Gamma gps_err_;
};

/// Observations of one target by a fleet of n drones (the inputs the fleet
/// feeds into two Delphi instances, one per coordinate).
std::vector<Vec2> fleet_observations(const DetectionModel& model,
                                     Vec2 ground_truth, std::size_t n,
                                     Rng& rng);

}  // namespace delphi::drone
