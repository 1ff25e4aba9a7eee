#pragma once
/// \file feed.hpp
/// Synthetic cryptocurrency price feed — the data substrate for the paper's
/// oracle-network evaluation (§VI-A).
///
/// The paper collected two weeks of per-minute Bitcoin prices from 10
/// exchanges and found the per-minute range delta = max - min across
/// exchanges to be Fréchet-distributed (alpha = 4.41, scale = 29.3 USD; Fig
/// 4), i.e. the underlying per-exchange noise is LogGamma-ish. We generate
/// the same structure synthetically: a mid-price random walk plus
/// per-exchange deviations whose realized range follows exactly that fitted
/// Fréchet. Everything downstream (Fig 4's histogram + fits, the
/// Delta = 2000$ / lambda = 30 calibration, Fig 6 workloads) consumes the
/// feed only through these statistics, which is why the substitution is
/// faithful (README.md "Substitutions").

#include <vector>

#include "common/rng.hpp"
#include "stats/distributions.hpp"

namespace delphi::oracle {

/// Configuration of the synthetic exchange feed.
struct FeedConfig {
  /// Number of exchanges (the paper queried 10).
  std::size_t exchanges = 10;
  /// Starting mid price (the paper's discussion uses ~40000 USD).
  double initial_price = 40'000.0;
  /// Per-minute lognormal volatility of the mid price random walk.
  double minute_volatility = 4e-4;
  /// Fréchet tail index of the per-minute cross-exchange range (Fig 4 fit).
  double range_alpha = 4.41;
  /// Fréchet scale of the range in USD (Fig 4 fit).
  double range_scale = 29.3;
};

/// A replayable synthetic feed: every call to `next_minute` advances the mid
/// price and draws one cross-exchange snapshot.
class PriceFeed {
 public:
  PriceFeed(FeedConfig cfg, Rng rng);

  /// Prices quoted by each exchange for the next minute (size = exchanges).
  /// The realized max-min of the snapshot equals the minute's Fréchet range
  /// draw; individual deviations are uniform within it (endpoints pinned).
  std::vector<double> next_minute();

  /// Current mid (ground-truth) price.
  double mid() const noexcept { return mid_; }

  /// The range delta = max - min of the last snapshot.
  double last_range() const noexcept { return last_range_; }

  const FeedConfig& config() const noexcept { return cfg_; }

 private:
  FeedConfig cfg_;
  Rng rng_;
  stats::Frechet range_dist_;
  double mid_;
  double last_range_ = 0.0;
};

/// An oracle node's input: the median of the exchanges it queries (the paper:
/// "each node measures the price by querying one or a set of exchanges and
/// computing the median of responses").
double node_observation(const std::vector<double>& snapshot,
                        std::size_t queries, Rng& rng);

/// Generate `minutes` per-minute range samples (the paper's Fig 4 dataset:
/// two weeks = 20160 minutes).
std::vector<double> range_history(const FeedConfig& cfg, std::size_t minutes,
                                  std::uint64_t seed);

}  // namespace delphi::oracle
