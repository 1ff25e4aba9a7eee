#pragma once
/// \file spec.hpp
/// ScenarioSpec — one declarative description of "run protocol P on testbed T
/// with n nodes, fault model F, workload W, seed S, on substrate X".
///
/// The spec is the currency of the scenario API (see scenario/runtime.hpp):
/// the same value runs unchanged on the discrete-event simulator and the real
/// TCP/UDP transports, drives single runs and parallel sweeps, and
/// round-trips through a plain `key=value` text form for CLI flags and
/// scenario files.
///
/// Text form (whitespace-separated `key=value` tokens, e.g. one per line in a
/// file):
///
///   protocol=delphi substrate=sim testbed=aws n=16 t=auto crashes=0 seed=1
///   center=40000 delta=20 rho0=10 eps=2 delta-max=2000
///
/// Fault plane (both optional; omitted when inactive — see SCENARIOS.md
/// "Fault models" for semantics and substrate support):
///
///   adversary=none | random-delay:<max_us> | targeted-lag:<k>:<lag_us>
///           | partition:<k>:<heal_us> | burst:<period_us>
///   byzantine=none | crash-after:<sends>:<k> | garbage:<size>:<k>
///   churn=<k>:<down_us>:<up_us>     (repeatable; disjoint windows)
///   churn-seed=<s>                  (randomized churn placement when != 0)
///
/// Multi-instance pipelining (both optional; omitted at their defaults —
/// see SCENARIOS.md "Multi-instance pipelining"):
///
///   instances=<k> mux-mode=concurrent|sequential
///
/// Reserved keys are the fixed fields below; every other key is a numeric
/// protocol parameter collected into `params`. Parameter keys are validated
/// against the protocol's registry entry (plus the universal substrate knobs
/// auth / fifo / timeout-ms / loss / loss-burst / rate-kbps / rto-ms), so a
/// typo like `crashs=2` is a ConfigError with a "did you mean" suggestion
/// instead of a silent no-op.
/// `inputs=v0,v1,...` pins explicit per-node inputs instead of the
/// clustered-workload generator.
/// Serialization is canonical: fixed fields first, then params in key order,
/// then inputs — `from_text(to_text(s)) == s` exactly (doubles are printed
/// with round-trip precision).

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace delphi::scenario {

/// Which runtime executes the scenario (see scenario/runtime.hpp).
enum class Substrate { kSim, kTcp, kUdp };

/// Simulated deployment the latency/cost models are shaped after (§VI-C).
/// Ignored by the socket substrates, which run on the real network.
enum class TestbedKind {
  kAws,    ///< t2.micro WAN: geo latency matrix, latency-dominated costs
  kCps,    ///< Raspberry-Pi LAN: bandwidth- and CPU-dominated costs
  kAsync,  ///< wide uniform latency, free CPU — correctness-test asynchrony
  kFast,   ///< default latency, free CPU — fastest to execute
};

/// Sentinel for "derive the fault bound from the protocol's resilience".
inline constexpr std::size_t kAutoFaults =
    std::numeric_limits<std::size_t>::max();

/// How a multi-instance run (`instances > 1`) opens its net::SessionMux
/// sessions: all together, or pipelined one-after-another (the paper's
/// one-report-per-minute deployment shape).
enum class MuxMode { kConcurrent, kSequential };

class ProtocolRegistry;

/// Network-level adversary strategy — the asynchronous model's
/// arbitrary-but-finite delay/reorder power. Runs natively in the simulator
/// (sim/adversary.hpp) and on both socket substrates via the in-process
/// netem shim (net/netem.hpp), which reproduces the same schedule at the
/// socket send boundary.
enum class AdversaryKind {
  kNone,         ///< benign network
  kRandomDelay,  ///< uniform extra delay in [0, us] on every message
  kTargetedLag,  ///< +us delay on all traffic touching nodes 0..k-1
  kPartition,    ///< cut between nodes 0..k-1 and the rest until time us
  kBurst,        ///< hold + LIFO-release messages in us-sized windows
};

/// Declarative network-adversary description; text form
/// `none | random-delay:<max_us> | targeted-lag:<k>:<lag_us> |
///  partition:<k>:<heal_us> | burst:<period_us>`.
struct AdversarySpec {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Victim/minority group size: the *first* k node ids (targeted-lag,
  /// partition). Honest nodes — the adversary attacks the network, not them.
  std::uint64_t k = 0;
  /// The strategy's time knob in simulated µs: max extra delay
  /// (random-delay), lag (targeted-lag), heal time (partition), window
  /// period (burst).
  std::uint64_t us = 0;

  bool operator==(const AdversarySpec&) const = default;
};

/// Byzantine node behaviour applied to the faulted placements (generic
/// strategies from sim/byzantine.hpp; protocol-wrapping, so they run on both
/// substrates).
enum class ByzantineKind {
  kNone,        ///< no behavioural faults beyond `crashes`
  kCrashAfter,  ///< run honestly, go silent after `param` outgoing messages
  kGarbage,     ///< spray undecodable junk frames of size <= `param` bytes
};

/// Declarative Byzantine-behaviour description; text form
/// `none | crash-after:<sends>:<k> | garbage:<size>:<k>`.
struct ByzantineSpec {
  ByzantineKind kind = ByzantineKind::kNone;
  /// Behaviour knob: outgoing-message budget (crash-after) or max junk
  /// message size in bytes (garbage).
  std::uint64_t param = 0;
  /// How many nodes misbehave: placed at the top ids directly below the
  /// `crashes` block.
  std::uint64_t k = 0;

  bool operator==(const ByzantineSpec&) const = default;
};

/// One churn event of the recovery fault family: `k` nodes go dark at
/// `down_us` and restart (rejoin + catch up) at `up_us`. Text form
/// `churn:<k>:<down_us>:<up_us>`, repeatable (`churn=` may appear several
/// times in a spec; windows must be pairwise disjoint). Placement: the first
/// k *honest* ids (0..k-1 — disjoint from the top-id crash/byzantine block),
/// or a seed-derived honest subset when `churn-seed=` is non-zero.
///
/// Per-substrate semantics (SCENARIOS.md "Churn & recovery"): the simulator
/// defers every delivery to a dark node until its restart time (a
/// deterministic pure-delay restart — state survives, as the asynchronous
/// model permits); the socket substrates really stop the node's event loop,
/// close its sockets, and re-dial/rebind at restart, with catch-up via
/// replay (TCP) or ARQ retransmission (UDP).
struct ChurnSpec {
  std::uint64_t k = 0;        ///< How many nodes restart together.
  std::uint64_t down_us = 0;  ///< When they go dark (µs; sim time / wall).
  std::uint64_t up_us = 0;    ///< When they rejoin; must be > down_us.

  bool operator==(const ChurnSpec&) const = default;
};

/// Parse the `adversary=` / `byzantine=` / `churn=` value grammars; throws
/// ConfigError naming the accepted forms on malformed input.
AdversarySpec parse_adversary(const std::string& value);
ByzantineSpec parse_byzantine(const std::string& value);
ChurnSpec parse_churn(const std::string& value);

/// Canonical text of a fault field ("none" when inactive).
std::string to_string(const AdversarySpec& a);
std::string to_string(const ByzantineSpec& b);

/// Substrate knobs every protocol accepts (auth, fifo, nodelay, timeout-ms,
/// and the netem shim knobs loss / loss-burst / rate-kbps / rto-ms) —
/// always legal `params` keys in addition to a registry entry's
/// `param_keys`.
const std::vector<std::string>& universal_param_keys();

struct ScenarioSpec {
  /// Registered protocol name (scenario/registry.hpp).
  std::string protocol = "delphi";
  Substrate substrate = Substrate::kSim;
  TestbedKind testbed = TestbedKind::kAws;
  std::size_t n = 16;
  /// Fault bound the protocols are configured for; kAutoFaults derives the
  /// protocol's maximum (e.g. (n-1)/3 for Delphi, (n-1)/5 for Dolev).
  std::size_t t = kAutoFaults;
  /// Crash-faulted nodes (silent from the start), placed at the top ids —
  /// the fault model of the paper's crash experiments.
  std::size_t crashes = 0;
  /// Protocol instances multiplexed over one mesh (net::SessionMux windows
  /// of 2^16 channels each). 1 = run the protocol directly, exactly as
  /// before the mux wiring existed. Each instance gets its own clustered
  /// workload (generator seed `seed + n + sid`; explicit `inputs` apply to
  /// every instance) and its own slice of the outputs in RunReport.
  std::size_t instances = 1;
  /// How instances open when instances > 1: concurrent (parallel feeds) or
  /// sequential (the one-report-per-minute pipeline). Ignored at
  /// instances == 1.
  MuxMode mux_mode = MuxMode::kConcurrent;
  /// Network-level adversary: scheduled natively by the simulator, emulated
  /// on tcp/udp by the netem shim at the send boundary (every form runs on
  /// every substrate).
  AdversarySpec adversary;
  /// Byzantine node behaviour for `byzantine.k` nodes directly below the
  /// `crashes` block (both substrates — the wrappers are protocol-level).
  ByzantineSpec byzantine;
  /// Churn schedule: each entry restarts k honest nodes (dark at down_us,
  /// rejoined at up_us). Empty = no churn (the default; omitted from text).
  /// Windows must be pairwise disjoint — validate() rejects overlap.
  std::vector<ChurnSpec> churn;
  /// 0 (default): churn hits the first k honest ids. Non-zero: placements
  /// are drawn deterministically from this seed (per entry), still within
  /// the honest id range.
  std::uint64_t churn_seed = 0;
  /// Master seed: network randomness, per-node RNG streams, coin session.
  std::uint64_t seed = 1;

  /// Workload generator: honest inputs clustered with realized range exactly
  /// `delta` around `center` (endpoints pinned) — how the paper's
  /// "delta = 20$ / 180$" curves are driven. Generator seed is `seed + n` so
  /// different system sizes in one sweep get distinct workloads.
  double center = 40'000.0;
  double delta = 20.0;
  /// Explicit per-node inputs; when non-empty (size must be n) they replace
  /// the generator.
  std::vector<double> inputs;

  /// Protocol-specific numeric knobs, e.g. rho0 / eps / delta-max / rounds /
  /// r-max / coin-us / dims. Also carries substrate knobs: auth (default 1),
  /// fifo (default 0, sim only), timeout-ms (default 30000, sockets only),
  /// and the netem shim knobs loss / loss-burst (udp), rate-kbps (sockets),
  /// rto-ms (udp retransmission timeout).
  std::map<std::string, double> params;

  bool operator==(const ScenarioSpec&) const = default;

  /// Parameter lookup with default.
  double param(const std::string& key, double dflt) const;

  /// Integer parameter lookup with default. Throws ConfigError naming `key`
  /// unless the value is a whole number in [lo, hi], so the caller's
  /// conversion is always in range. hi must not exceed 2^53.
  std::int64_t int_param(const std::string& key, std::int64_t dflt,
                         std::int64_t lo, std::int64_t hi) const;

  /// Materialize the per-node input vector (explicit inputs or generator).
  /// Throws ConfigError if explicit inputs don't match n.
  std::vector<double> make_inputs() const;

  /// Basic structural validation (n >= 1, crashes + byzantine.k < n, fault
  /// fields well-formed, protocol non-empty); protocol-level constraints
  /// are checked by the protocol configs.
  void validate() const;

  /// Reject params keys the protocol's registry entry does not advertise
  /// (and that are not universal substrate knobs), with a "did you mean"
  /// suggestion. No-op for protocols `reg` does not know — require() names
  /// those later with the full protocol list.
  void validate_params(const ProtocolRegistry& reg) const;

  /// Canonical text form (see file header).
  std::string to_text() const;
  /// Parse a text form; throws ConfigError on malformed input.
  static ScenarioSpec from_text(const std::string& text);
};

/// Honest inputs with realized range exactly `delta` around `center`
/// (endpoints pinned, the rest uniform inside, positions shuffled). The
/// single workload generator formerly private to bench_util.
std::vector<double> clustered_inputs(std::size_t n, double center,
                                     double delta, std::uint64_t seed);

const char* to_string(Substrate s) noexcept;
const char* to_string(TestbedKind tb) noexcept;
const char* to_string(MuxMode m) noexcept;

}  // namespace delphi::scenario
