#pragma once
/// \file runtime.hpp
/// Runtime — execute a ScenarioSpec on a substrate and return one unified
/// RunReport.
///
/// SimRuntime drives the deterministic discrete-event simulator (same spec +
/// seed ⇒ bit-identical report); TcpRuntime and UdpRuntime drive real
/// full-mesh socket clusters on localhost (stream and datagram transports
/// respectively, both optionally shaped by the in-process netem shim). All
/// substrates run the identical protocol state machines (net::Protocol)
/// built by the ProtocolRegistry, and all report through the same RunReport.
/// SimRuntime is the only way to run a registry protocol on the simulator;
/// code that builds its own nodes drives sim::Simulator directly.
///
/// Multi-instance runs: when spec.instances > 1, every runtime wraps each
/// node's protocol in a net::SessionMux (2^16-channel windows, concurrent or
/// sequential per spec.mux_mode), shares the one mesh across all instances,
/// and harvests every instance's outputs into the report.

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "sim/simulator.hpp"

namespace delphi::scenario {

class ProtocolRegistry;

/// Per-node counters, unified across substrates (sim::NodeMetrics and
/// transport::TransportMetrics report the same four quantities).
struct NodeCounters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< framed bytes, self-delivery excluded
  std::uint64_t msgs_delivered = 0;
  std::uint64_t malformed_dropped = 0;
  /// Termination time (simulated µs); -1 if never, or on the socket
  /// substrates (which have no per-node clock worth reporting).
  SimTime terminated_at = -1;
  // Churn/recovery plane (all zero on churn-free runs — see SCENARIOS.md
  // "Churn & recovery" for the metrics schema):
  /// Link re-establishments (TCP) / socket rebinds (UDP) this node took
  /// part in; under sim, one per restart window hitting the node.
  std::uint64_t reconnects = 0;
  /// Catch-up traffic carried for/by this node: replayed frames (TCP), ARQ
  /// retransmissions (UDP), deliveries deferred past a dark window (sim).
  /// Transport recovery overhead — NEVER added to honest_bytes/honest_msgs,
  /// so cross-substrate parity is unaffected by churn.
  std::uint64_t catchup_frames = 0;
  std::uint64_t catchup_bytes = 0;
  /// Total time this node spent dark across its restarts (ms).
  std::uint64_t downtime_ms = 0;

  bool operator==(const NodeCounters&) const = default;
};

/// A node whose thread died with an error on a socket substrate: which node
/// and why (exception text, typically carrying errno — e.g. the typed
/// ResourceExhausted of a UDP unacked-map overflow).
struct NodeError {
  NodeId id = 0;
  std::string message;

  bool operator==(const NodeError&) const = default;
};

/// Result of one scenario run on either substrate.
struct RunReport {
  /// Every honest (non-crashed) node terminated.
  bool ok = false;
  /// Honest completion time: simulated ms under sim, wall-clock ms on the
  /// socket substrates. (-0.001 when some honest node never terminated,
  /// matching the historical honest_completion = -1 convention.)
  double runtime_ms = 0.0;
  /// Traffic of honest nodes only (the complexity the paper reports).
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_msgs = 0;
  /// Harvested outputs of honest nodes, in node-id order (vector-valued
  /// protocols contribute all coordinates; non-terminated nodes contribute
  /// nothing). Multi-instance runs (spec.instances > 1) append every
  /// instance's outputs per node, in instance order — all k feeds report,
  /// not just feed 0.
  std::vector<double> outputs;
  /// All n nodes' counters, in node-id order.
  std::vector<NodeCounters> nodes;
  /// Honest node ids that had not terminated (empty iff ok) — on the socket
  /// substrates the ids the cluster's wait() timed out on.
  std::vector<NodeId> unfinished;
  /// Node threads that died with an error (socket substrates; empty under
  /// sim and on clean runs) — which node and the failure cause.
  std::vector<NodeError> node_errors;

  bool operator==(const RunReport&) const = default;

  double megabytes() const { return static_cast<double>(honest_bytes) / 1e6; }
};

/// A substrate that can execute scenarios.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Execute `spec` to completion. Throws ConfigError for unknown protocols
  /// or invalid specs; protocol/transport errors propagate as delphi::Error.
  virtual RunReport run(const ScenarioSpec& spec) = 0;
};

/// Deterministic discrete-event simulation (spec.testbed selects the
/// latency/cost models; spec params: fifo, auth). Executes the full fault
/// plane: spec.adversary becomes the SimConfig's NetworkAdversary and
/// spec.byzantine / spec.crashes wrap the faulted placements' protocols —
/// faulted runs keep the determinism contract (same spec + seed ⇒
/// bit-identical RunReport). Protocols resolve via `registry` (nullptr =
/// ProtocolRegistry::global()).
class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(const ProtocolRegistry* registry = nullptr) noexcept
      : registry_(registry) {}
  RunReport run(const ScenarioSpec& spec) override;

 private:
  const ProtocolRegistry* registry_;
};

/// Real TCP sockets on 127.0.0.1, one OS thread per node (spec params: auth,
/// timeout-ms, nodelay, rate-kbps; testbed is ignored — the network is
/// real). Executes the protocol-wrapping faults (spec.crashes and every
/// spec.byzantine kind) and every spec.adversary form via the netem shim's
/// send-boundary holdback (delay-only on TCP). The loss knobs are rejected
/// with a ConfigError suggesting substrate=udp: TCP has no frame-level
/// recovery, so a shim-dropped frame would be gone forever. Protocols
/// resolve via `registry` (nullptr = ProtocolRegistry::global()).
class TcpRuntime final : public Runtime {
 public:
  explicit TcpRuntime(const ProtocolRegistry* registry = nullptr) noexcept
      : registry_(registry) {}
  RunReport run(const ScenarioSpec& spec) override;

 private:
  const ProtocolRegistry* registry_;
};

/// Real UDP datagrams on 127.0.0.1 (transport/udp.hpp), one OS thread per
/// node (spec params: auth, timeout-ms, rto-ms, and the full netem plane:
/// every adversary= form plus loss / loss-burst / rate-kbps). The
/// substrate's selective-repeat ARQ recovers shim-dropped datagrams, so
/// agreement terminates under bounded loss. Protocols resolve via
/// `registry` (nullptr = ProtocolRegistry::global()).
class UdpRuntime final : public Runtime {
 public:
  explicit UdpRuntime(const ProtocolRegistry* registry = nullptr) noexcept
      : registry_(registry) {}
  RunReport run(const ScenarioSpec& spec) override;

 private:
  const ProtocolRegistry* registry_;
};

/// Run on the substrate the spec names.
RunReport run_scenario(const ScenarioSpec& spec);

/// Simulation config for a testbed kind — the single construction point for
/// the §VI-C testbeds (formerly duplicated between bench_util and tests).
sim::SimConfig testbed_config(TestbedKind tb, std::size_t n,
                              std::uint64_t seed);

}  // namespace delphi::scenario
