#pragma once
/// \file netem.hpp
/// In-process network emulation shim for the socket substrates — the
/// counterpart of the simulator's NetworkAdversary (sim/adversary.hpp) at the
/// send boundary of real TCP/UDP links.
///
/// The simulator schedules delivery times directly; a real socket cannot be
/// delay-scheduled, but its *send side* can be: every outgoing frame first
/// asks its link's LinkShim for a Verdict — drop it, or release it to the
/// wire no earlier than `release_us`. The transports keep shimmed frames in
/// a holdback queue ordered by (release_us, order) and transmit them when
/// due, which reproduces every `adversary=` form from the fault plane on
/// genuine kernel sockets:
///
///   * random-delay:<max_us>      — seeded uniform jitter in [0, max] per frame
///   * targeted-lag:<k>:<lag_us>  — +lag on traffic touching nodes 0..k-1
///   * partition:<k>:<heal_us>    — cross-cut traffic held until heal (+jitter)
///   * burst:<period_us>          — hold to window end, LIFO within the window
///
/// plus the loss/bandwidth knobs the simulator deliberately lacks (its model
/// forbids drops):
///
///   * loss / loss-burst  — Gilbert–Elliott frame drops (UDP only: recovery
///                          relies on the UDP substrate's retransmission)
///   * rate-kbps          — token-bucket bandwidth cap per directed link
///
/// Determinism: a LinkShim draws from its own Rng seeded from
/// (seed, from, to), so the drop/jitter schedule for a given config is a pure
/// function of the spec — same seed ⇒ same schedule, which netem_shim_test
/// pins. (Wall-clock send times still vary run to run, so socket runs are not
/// bit-reproducible like sim runs; the *schedule function* is.)

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace delphi::net::netem {

/// Declarative emulation parameters for one cluster, derived from a
/// ScenarioSpec by the scenario layer. Default-constructed = inert (no
/// emulation, zero per-frame cost).
struct Config {
  /// Master seed; each directed link forks its own stream from (seed,from,to).
  std::uint64_t seed = 1;

  /// random-delay: uniform extra delay in [0, jitter_max_us] per frame.
  SimTime jitter_max_us = 0;

  /// targeted-lag: +lag_us on every frame from or to nodes 0..lag_k-1.
  std::size_t lag_k = 0;
  SimTime lag_us = 0;

  /// partition: frames crossing the cut between nodes 0..partition_k-1 and
  /// the rest are held until heal_us (measured from cluster start), plus a
  /// small seeded jitter so releases don't collapse to one instant — the
  /// same semantics as sim::PartitionAdversary.
  std::size_t partition_k = 0;
  SimTime heal_us = 0;
  /// One-way variant: only group→rest traffic is blocked; rest→group flows
  /// freely. (Class-level knob for asymmetric-link experiments and tests;
  /// the spec's partition form is symmetric.)
  bool oneway = false;

  /// burst: hold every frame to the end of its period-sized window and
  /// release LIFO within the window (sim::BurstReorderAdversary).
  SimTime burst_period_us = 0;

  /// Gilbert–Elliott frame loss: unconditional drop probability `loss` with
  /// mean drop-run length `loss_burst_len` (1 = independent Bernoulli).
  double loss = 0.0;
  double loss_burst_len = 1.0;

  /// Token-bucket bandwidth cap in bytes per microsecond (0 = uncapped);
  /// the bucket holds 20 ms worth of line rate as burst credit.
  double rate_bytes_per_us = 0.0;

  /// True when any knob is set — transports skip the shim entirely (and its
  /// holdback bookkeeping) for inert configs.
  bool active() const noexcept {
    return jitter_max_us > 0 || (lag_k > 0 && lag_us > 0) ||
           (partition_k > 0 && heal_us > 0) || burst_period_us > 0 ||
           loss > 0.0 || rate_bytes_per_us > 0.0;
  }
};

/// Emulation state of ONE directed link (from → to). The owning transport
/// calls on_send() once per transmission attempt with the link-local
/// monotonic time (µs since cluster start) and acts on the verdict.
class LinkShim {
 public:
  /// Inert shim: every verdict is "send now".
  LinkShim() = default;

  LinkShim(const Config& cfg, NodeId from, NodeId to);

  struct Verdict {
    /// Drop the frame (Gilbert–Elliott loss). Only meaningful on substrates
    /// with a recovery layer; the TCP transport ignores it by design.
    bool drop = false;
    /// Earliest wire time (same clock as `now_us`); <= now means send now.
    SimTime release_us = 0;
    /// Secondary ordering key for equal release times: ascending within the
    /// holdback queue. Burst windows hand out *descending* orders so later
    /// sends overtake earlier ones (LIFO), mirroring the sim adversary.
    std::uint64_t order = 0;
  };

  /// Verdict for a frame of `wire_bytes` attempted at `now_us`. Advances the
  /// deterministic schedule (RNG draws, bucket level, loss state) even for
  /// frames the caller ends up not sending.
  Verdict on_send(SimTime now_us, std::size_t wire_bytes);

  bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  Rng rng_{0};

  // Resolved per-link behaviour (from/to baked in at construction).
  SimTime jitter_max_us_ = 0;
  SimTime lag_us_ = 0;         ///< 0 when this link is not lagged
  SimTime heal_us_ = 0;        ///< 0 when this link is not partitioned
  SimTime burst_period_us_ = 0;

  // Gilbert–Elliott loss channel.
  double p_enter_bad_ = 0.0;   ///< good → bad transition probability
  double p_exit_bad_ = 1.0;    ///< bad → good transition probability
  bool loss_bad_state_ = false;

  // Token bucket (bytes); negative = queueing debt already scheduled.
  double rate_ = 0.0;          ///< bytes per µs
  double bucket_cap_ = 0.0;    ///< burst credit in bytes
  double tokens_ = 0.0;
  SimTime bucket_at_ = 0;      ///< last refill time

  // Ordering keys.
  std::uint64_t fifo_order_ = 0;
  SimTime burst_window_ = -1;         ///< window index currently counting down
  std::uint64_t burst_order_ = 0;     ///< descending within the window
};

}  // namespace delphi::net::netem
