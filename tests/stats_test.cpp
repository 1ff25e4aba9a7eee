/// Tests for the statistics toolkit: special functions, samplers (moment
/// checks), CDFs, summaries, histograms, fitting, and KS-based model
/// selection — the machinery behind Figs 4-5 and the Delta calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/distributions.hpp"
#include "stats/fit.hpp"
#include "stats/special.hpp"
#include "stats/summary.hpp"

namespace delphi::stats {
namespace {

// -------------------------------------------------------- special functions --

TEST(Special, GammaPKnownValues) {
  // P(1, x) = 1 - e^-x.
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-10);
  }
}

TEST(Special, GammaPBoundsAndMonotone) {
  EXPECT_EQ(gamma_p(2.0, 0.0), 0.0);
  double prev = 0.0;
  for (double x = 0.1; x < 30.0; x += 0.5) {
    const double p = gamma_p(3.0, x);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_NEAR(gamma_p(3.0, 100.0), 1.0, 1e-12);
}

TEST(Special, DigammaKnownValues) {
  EXPECT_NEAR(digamma(1.0), -kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(2.0), 1.0 - kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(0.5), -kEulerGamma - 2.0 * std::log(2.0), 1e-9);
  // Recurrence psi(x+1) = psi(x) + 1/x.
  for (double x : {0.3, 1.7, 5.5, 20.0}) {
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
  }
}

// ------------------------------------------------------------------ samplers --

struct MomentCase {
  const char* name;
  std::shared_ptr<Distribution> dist;
  double tol_mean;
};

class SamplerMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(SamplerMoments, MeanMatchesAnalytic) {
  const auto& c = GetParam();
  Rng rng(0xABCD);
  const std::size_t n = 200'000;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += c.dist->sample(rng);
  const double mean = sum / static_cast<double>(n);
  EXPECT_NEAR(mean, c.dist->mean(), c.tol_mean) << c.name;
}

TEST_P(SamplerMoments, EmpiricalCdfMatchesAnalytic) {
  const auto& c = GetParam();
  Rng rng(0x1234);
  const std::size_t n = 50'000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = c.dist->sample(rng);
  // KS between the sample and its own distribution should be tiny
  // (~1.6/sqrt(n) at 99% confidence).
  EXPECT_LT(ks_statistic(xs, *c.dist), 1.7 / std::sqrt(static_cast<double>(n)))
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, SamplerMoments,
    ::testing::Values(
        MomentCase{"normal", std::make_shared<Normal>(5.0, 2.0), 0.02},
        MomentCase{"normal_neg", std::make_shared<Normal>(-40.0, 0.5), 0.01},
        MomentCase{"lognormal", std::make_shared<LogNormal>(0.0, 0.5), 0.02},
        MomentCase{"gamma_big", std::make_shared<Gamma>(30.77, 0.18), 0.02},
        MomentCase{"gamma_small_shape", std::make_shared<Gamma>(0.5, 2.0),
                   0.03},
        MomentCase{"pareto", std::make_shared<Pareto>(4.41, 1.0), 0.02},
        MomentCase{"frechet_paper", std::make_shared<Frechet>(4.41, 29.3),
                   0.6},
        MomentCase{"gumbel", std::make_shared<Gumbel>(10.0, 3.0), 0.05},
        MomentCase{"uniform", std::make_shared<Uniform>(-2.0, 6.0), 0.02}),
    [](const auto& test_info) { return std::string(test_info.param.name); });

TEST(Samplers, DeterministicGivenSeed) {
  Normal d(0.0, 1.0);
  Rng a(9), b(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(a), d.sample(b));
}

TEST(Samplers, LogGammaIsHeavyTailedAndPositive) {
  LogGamma d(2.0, 0.5);
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(d.sample(rng), 1.0);  // exp(Gamma >= 0) >= 1
  }
  EXPECT_NEAR(d.mean(), std::pow(0.5, -2.0), 1e-12);  // (1-θ)^-k
}

TEST(Samplers, LogGammaCdfIsGammaCdfOfTheLog) {
  // Shape 1 makes the base an exponential of mean theta, so
  // P(exp(G) <= x) = 1 - x^(-1/theta): a Pareto tail of index 1/theta.
  const LogGamma d(1.0, 0.5);
  EXPECT_EQ(d.cdf(0.5), 0.0);
  EXPECT_EQ(d.cdf(1.0), 0.0);
  for (double x : {1.5, 2.0, 10.0, 1e3}) {
    EXPECT_NEAR(d.cdf(x), 1.0 - std::pow(x, -2.0), 1e-12) << x;
  }
  // Another shape: its samples fit its own CDF.
  const LogGamma heavy(2.0, 0.5);
  Rng rng(0x5EED);
  std::vector<double> xs(50'000);
  for (auto& x : xs) x = heavy.sample(rng);
  EXPECT_LT(ks_statistic(xs, heavy), 1.7 / std::sqrt(50'000.0));
}

TEST(Samplers, ParetoInfiniteMeanBelowOne) {
  Pareto d(0.9, 1.0);
  EXPECT_TRUE(std::isinf(d.mean()));
}

TEST(Samplers, FrechetQuantileInvertsCdf) {
  Frechet d(4.41, 29.3);
  for (double p : {0.01, 0.5, 0.99, 0.999999}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-9);
  }
}

TEST(Samplers, GumbelQuantileInvertsCdf) {
  Gumbel d(5.0, 2.0);
  for (double p : {0.01, 0.5, 0.999}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-9);
  }
}

TEST(Samplers, BadParametersThrow) {
  EXPECT_THROW(Normal(0.0, 0.0), ConfigError);
  EXPECT_THROW(Gamma(-1.0, 1.0), ConfigError);
  EXPECT_THROW(Pareto(1.0, 0.0), ConfigError);
  EXPECT_THROW(Frechet(0.0, 1.0), ConfigError);
  EXPECT_THROW(Gumbel(0.0, -1.0), ConfigError);
  EXPECT_THROW(Uniform(1.0, 1.0), ConfigError);
}

// ------------------------------------------------------------------- summary --

TEST(Summary, BasicMoments) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.variance, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.range(), 4.0);
}

TEST(Summary, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize({7.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

TEST(Summary, Quantiles) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps into first bin
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_left(9), 9.0);
}

TEST(Histogram, FractionBelow) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(10.0), 1.0);
}

TEST(Histogram, AsciiRenders) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

// ------------------------------------------------------------------- fitting --

TEST(Fit, NormalRecovery) {
  Rng rng(11);
  Normal truth(12.0, 3.0);
  std::vector<double> xs(50'000);
  for (auto& x : xs) x = truth.sample(rng);
  const Normal fit = fit_normal(xs);
  EXPECT_NEAR(fit.mean(), 12.0, 0.1);
  EXPECT_NEAR(fit.sigma(), 3.0, 0.1);
}

TEST(Fit, GumbelRecovery) {
  Rng rng(12);
  Gumbel truth(30.0, 6.0);
  std::vector<double> xs(50'000);
  for (auto& x : xs) x = truth.sample(rng);
  const Gumbel fit = fit_gumbel(xs);
  EXPECT_NEAR(fit.loc(), 30.0, 0.3);
  EXPECT_NEAR(fit.scale(), 6.0, 0.3);
}

TEST(Fit, FrechetRecoveryAtPaperParameters) {
  // The Fig 4 parameters: alpha = 4.41, scale = 29.3.
  Rng rng(13);
  Frechet truth(4.41, 29.3);
  std::vector<double> xs(50'000);
  for (auto& x : xs) x = truth.sample(rng);
  const Frechet fit = fit_frechet(xs);
  EXPECT_NEAR(fit.alpha(), 4.41, 0.25);
  EXPECT_NEAR(fit.scale(), 29.3, 1.0);
}

TEST(Fit, GammaRecoveryAtPaperParameters) {
  // The §VI-B parameters: shape = 30.77, scale = 0.18.
  Rng rng(14);
  Gamma truth(30.77, 0.18);
  std::vector<double> xs(50'000);
  for (auto& x : xs) x = truth.sample(rng);
  const Gamma fit = fit_gamma(xs);
  EXPECT_NEAR(fit.shape(), 30.77, 1.5);
  EXPECT_NEAR(fit.scale(), 0.18, 0.01);
}

TEST(Fit, KsStatisticDetectsWrongModel) {
  Rng rng(15);
  Frechet truth(4.41, 29.3);
  std::vector<double> xs(20'000);
  for (auto& x : xs) x = truth.sample(rng);
  const double ks_right = ks_statistic(xs, truth);
  const double ks_wrong = ks_statistic(xs, Normal(35.0, 10.0));
  EXPECT_LT(ks_right, 0.02);
  EXPECT_GT(ks_wrong, 5.0 * ks_right);
}

TEST(Fit, BestFitPicksFrechetForFrechetData) {
  // This is the Fig 4 methodology: Fréchet beats Gumbel on range data.
  Rng rng(16);
  Frechet truth(4.41, 29.3);
  std::vector<double> xs(20'000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto fits = best_fit(xs, {"Frechet", "Gumbel", "Normal", "Gamma"});
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().family, "Frechet");
}

TEST(Fit, BestFitPicksGammaForGammaData) {
  // The Fig 5 methodology: Gamma beats Fréchet on IoU data.
  Rng rng(17);
  Gamma truth(30.77, 0.18);
  std::vector<double> xs(20'000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto fits = best_fit(xs, {"Frechet", "Gamma", "Gumbel"});
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().family, "Gamma");
}

TEST(Fit, BestFitSkipsUnfittableFamilies) {
  // Negative data cannot be fit by Fréchet/Gamma; best_fit must not throw.
  Rng rng(18);
  Normal truth(-5.0, 1.0);
  std::vector<double> xs(5'000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto fits = best_fit(xs, {"Frechet", "Gamma", "Normal"});
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().family, "Normal");
}

}  // namespace
}  // namespace delphi::stats
