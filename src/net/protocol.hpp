#pragma once
/// \file protocol.hpp
/// The protocol/runtime boundary: every distributed algorithm in this repo
/// (RBC, ABA, ACS, BinAA, Delphi, Abraham et al.) is a message-driven state
/// machine implementing `Protocol`, talking to its host through `Context`.
/// The same state machines run unchanged under the discrete-event simulator
/// and the TCP transport.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace delphi::net {

/// Host facilities available to a protocol instance.
///
/// `send`/`broadcast` are fire-and-forget over authenticated asynchronous
/// channels: delivery is guaranteed but arbitrarily delayed and reordered
/// (unless the deployment enables FIFO links). `channel` multiplexes
/// sub-protocol instances within one node (e.g. ACS routes channel ids to its
/// n RBC and n ABA children).
class Context {
 public:
  virtual ~Context() = default;

  /// This node's id in 0..n-1.
  virtual NodeId self() const = 0;

  /// System size n.
  virtual std::size_t n() const = 0;

  /// Current local time in µs since the run started (simulated under the
  /// simulator; wall clock since the cluster epoch on the socket
  /// substrates). Protocols in this repo never branch on time —
  /// asynchronous-model correctness forbids it — but applications and
  /// metrics read it.
  virtual SimTime now() const = 0;

  /// Send one message to `to` (loopback allowed).
  virtual void send(NodeId to, std::uint32_t channel, MessagePtr msg) = 0;

  /// Send to every node including self. Self-delivery is local (no network
  /// bytes); the n-1 remote copies share one message body.
  virtual void broadcast(std::uint32_t channel, MessagePtr msg) = 0;

  /// Model CPU work (crypto, aggregation) of `us` microseconds: under the
  /// simulator this extends the node's busy time; under TCP it is a no-op
  /// (real cycles are already spent).
  virtual void charge_compute(SimTime us) = 0;

  /// This node's private deterministic randomness stream.
  virtual Rng& rng() = 0;
};

/// Implemented by protocols whose result is a single real value (all the
/// approximate-agreement / convex-BA protocols in this repo). Harnesses and
/// applications read outputs through this interface without knowing concrete
/// protocol types.
class ValueOutput {
 public:
  virtual ~ValueOutput() = default;

  /// The node's decided value, or nullopt before termination.
  virtual std::optional<double> output_value() const = 0;
};

/// A message-driven protocol state machine.
///
/// Contract:
///  * `on_start` is invoked exactly once before any delivery.
///  * `on_message` is invoked serially (single-threaded per node).
///  * `terminated()` is monotone: once true it stays true.
///  * Malformed adversarial input must raise ProtocolViolation (the host
///    drops the message); honest state must stay consistent.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Begin execution (send initial messages).
  virtual void on_start(Context& ctx) = 0;

  /// Handle one delivered message.
  virtual void on_message(Context& ctx, NodeId from, std::uint32_t channel,
                          const MessageBody& body) = 0;

  /// True once this node has produced its final output.
  virtual bool terminated() const = 0;
};

/// Optional capability: a protocol that can checkpoint its state and resume
/// from the checkpoint in a fresh instance — the catch-up hook of the churn
/// plane. When a node restarts on a socket substrate, the transport snapshots
/// the protocol at shutdown and restores it into a factory-fresh instance at
/// rejoin (modelling a real process restart from a persisted checkpoint).
/// Protocols that do not implement this keep their live instance across the
/// restart instead (an implicit in-memory snapshot) and rely on peer
/// retransmission of undelivered frames to catch up.
///
/// Contract: `restore(r)` on a fresh instance built by the same factory with
/// the same configuration must reproduce the snapshotted instance exactly —
/// same `terminated()`, same outputs, same reaction to every future message.
class RestartableProtocol {
 public:
  virtual ~RestartableProtocol() = default;

  /// Serialize resumable state (not configuration — the factory re-supplies
  /// that) into `w`.
  virtual void snapshot(ByteWriter& w) const = 0;

  /// Restore state written by snapshot(). Throws SerializationError /
  /// ProtocolViolation on malformed bytes.
  virtual void restore(ByteReader& r) = 0;
};

/// Builds node i's protocol instance. The shared deployment-population hook
/// of every substrate (the scenario runtimes and the socket clusters);
/// Byzantine placements return adversarial implementations.
using ProtocolFactory = std::function<std::unique_ptr<Protocol>(NodeId id)>;

}  // namespace delphi::net
