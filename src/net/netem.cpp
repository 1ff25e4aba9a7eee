#include "net/netem.hpp"

#include <algorithm>

namespace delphi::net::netem {

namespace {

/// Partition releases get the same small decollapsing jitter as
/// sim::PartitionAdversary's default.
constexpr SimTime kHealJitterUs = 10'000;

/// Burst windows hand out descending orders starting here; a window would
/// need 2^62 sends to wrap into the ascending FIFO range.
constexpr std::uint64_t kBurstOrderBase = 1ULL << 62;

/// Token-bucket burst credit: this much line-rate time's worth of bytes.
constexpr SimTime kBucketDepthUs = 20'000;

/// Independent per-directed-link stream from (seed, from, to) — two SplitMix
/// hops so (from, to) and (to, from) decorrelate.
std::uint64_t link_seed(std::uint64_t seed, NodeId from, NodeId to) {
  SplitMix64 a(seed ^ (0x9E3779B97F4A7C15ULL *
                       (static_cast<std::uint64_t>(from) + 1)));
  SplitMix64 b(a.next() ^ (0xBF58476D1CE4E5B9ULL *
                           (static_cast<std::uint64_t>(to) + 1)));
  return b.next();
}

}  // namespace

LinkShim::LinkShim(const Config& cfg, NodeId from, NodeId to)
    : rng_(link_seed(cfg.seed, from, to)) {
  jitter_max_us_ = std::max<SimTime>(cfg.jitter_max_us, 0);
  if (cfg.lag_k > 0 && (from < cfg.lag_k || to < cfg.lag_k)) {
    lag_us_ = std::max<SimTime>(cfg.lag_us, 0);
  }
  const bool from_in = from < cfg.partition_k;
  const bool to_in = to < cfg.partition_k;
  if (cfg.partition_k > 0 && from_in != to_in &&
      (!cfg.oneway || from_in)) {
    heal_us_ = std::max<SimTime>(cfg.heal_us, 0);
  }
  burst_period_us_ = std::max<SimTime>(cfg.burst_period_us, 0);
  if (cfg.loss > 0.0) {
    // Gilbert–Elliott calibrated so the stationary drop fraction equals
    // `loss` with mean drop-run length `loss_burst_len` (1 = Bernoulli).
    const double p = std::min(cfg.loss, 0.999);
    const double len = std::max(1.0, cfg.loss_burst_len);
    p_exit_bad_ = 1.0 / len;
    p_enter_bad_ = std::min(1.0, p / (len * (1.0 - p)));
  }
  if (cfg.rate_bytes_per_us > 0.0) {
    rate_ = cfg.rate_bytes_per_us;
    bucket_cap_ = rate_ * static_cast<double>(kBucketDepthUs);
    tokens_ = bucket_cap_;
  }
  active_ = jitter_max_us_ > 0 || lag_us_ > 0 || heal_us_ > 0 ||
            burst_period_us_ > 0 || p_enter_bad_ > 0.0 || rate_ > 0.0;
}

LinkShim::Verdict LinkShim::on_send(SimTime now_us, std::size_t wire_bytes) {
  Verdict v;
  v.release_us = now_us;
  v.order = ++fifo_order_;
  if (!active_) return v;

  // Loss channel: advance the two-state chain, then drop iff in the bad
  // state. The draw happens on every attempt so the schedule downstream of a
  // drop is unchanged whether or not the caller honours it.
  if (p_enter_bad_ > 0.0) {
    const double u = rng_.uniform();
    if (loss_bad_state_) {
      if (u < p_exit_bad_) loss_bad_state_ = false;
    } else if (u < p_enter_bad_) {
      loss_bad_state_ = true;
    }
    v.drop = loss_bad_state_;
  }

  SimTime release = now_us;

  // Token bucket: refill since the last attempt, spend, and if the bucket
  // went negative the frame queues behind the debt — long-run throughput
  // converges to the configured rate.
  if (rate_ > 0.0) {
    tokens_ += static_cast<double>(now_us - bucket_at_) * rate_;
    tokens_ = std::min(tokens_, bucket_cap_);
    bucket_at_ = now_us;
    tokens_ -= static_cast<double>(wire_bytes);
    if (tokens_ < 0.0) {
      release = std::max(release,
                         now_us + static_cast<SimTime>(-tokens_ / rate_) + 1);
    }
  }

  if (jitter_max_us_ > 0) {
    release = std::max(
        release, now_us + static_cast<SimTime>(rng_.below(
                     static_cast<std::uint64_t>(jitter_max_us_) + 1)));
  }
  if (lag_us_ > 0) release = std::max(release, now_us + lag_us_);
  if (heal_us_ > 0 && now_us < heal_us_) {
    release = std::max(
        release, heal_us_ + static_cast<SimTime>(rng_.below(kHealJitterUs)));
  }
  if (burst_period_us_ > 0) {
    const SimTime window = now_us / burst_period_us_;
    if (window != burst_window_) {
      burst_window_ = window;
      burst_order_ = kBurstOrderBase;
    }
    release = std::max(release, (window + 1) * burst_period_us_);
    v.order = --burst_order_;  // earlier sends sort later: LIFO in the window
  }

  v.release_us = release;
  return v;
}

}  // namespace delphi::net::netem
