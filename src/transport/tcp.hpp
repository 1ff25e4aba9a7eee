#pragma once
/// \file tcp.hpp
/// Real asynchronous TCP deployment of the protocol state machines — the
/// counterpart of the paper's tokio-based Rust implementation (§VI-C).
///
/// Every protocol in this repo is a transport-agnostic net::Protocol; this
/// module runs them over genuine kernel sockets:
///   * full mesh of TCP connections over localhost (tests/examples) or any
///     reachable addresses;
///   * length-framed, HMAC-SHA256-authenticated links (transport/frame.hpp)
///     with pairwise keys from crypto::KeyStore — the paper's authenticated
///     channels; per-link HMAC midstates are derived once at connection
///     setup (crypto::HmacKey), so a frame tag costs two compression
///     finishes, not a key schedule;
///   * one thread per node, poll(2)-driven non-blocking I/O with no timeout
///     ticks: loops block until socket activity or a wakeup-fd signal
///     (net/wakeup.hpp) and cross-thread stop/termination notifications are
///     event-driven, so idle nodes burn no CPU and shutdown is immediate
///     (the one exception: frames held back by the netem shim bound the
///     poll timeout by their next release time);
///   * broadcasts encode the frame body once and share the immutable buffer
///     across all n-1 links (only the per-link MAC differs); each link
///     appends body + tag to its own output byte buffer, which a write(2)
///     loop drains until the socket is full;
///   * each node's protocol runs strictly single-threaded (the Protocol
///     contract);
///   * TCP gives per-link FIFO, so fifo-dependent codecs are sound here.
///
/// Unlike the simulator, messages here are *really* serialized, framed,
/// MAC'd, transmitted, re-parsed and verified — the codec paths the simulator
/// only accounts for. The byte counts of the two substrates agree by
/// construction (net::framed_size), which the transport tests assert.
///
/// Typed message bodies are recovered from payload bytes by a per-deployment
/// `Decoder` (see transport/decoders.hpp for the standard protocol suites).
///
/// The node lifecycle — protocol hosting, local delivery, termination,
/// churn snapshot/restore, start/wait/stop — is shared with UDP in
/// transport/socket_node.hpp; this module keeps only stream framing, the
/// hello handshake and mesh bring-up, the reconnect supervisor, replay
/// logs, and the per-link output buffers.

#include <cstdint>
#include <memory>

#include "transport/frame.hpp"
#include "transport/socket_node.hpp"

namespace delphi::transport {

/// A full-mesh TCP cluster of n nodes, one OS thread each, on 127.0.0.1;
/// start/wait and the observers come from SocketCluster.
class TcpCluster final : public SocketCluster {
 public:
  /// SocketOptions plus the stream knobs. On TCP the netem shim is
  /// delay-only: the stream has no frame-level recovery, so drop verdicts
  /// are ignored — the scenario layer rejects loss configs on this
  /// substrate. A churn schedule implies `recovery`: a dark node closes
  /// every socket (peers see EOF / connection refused) and rejoins at up_us:
  /// it rebinds its listen port, re-dials lower ids, and higher ids re-dial
  /// it with backoff.
  struct Options : SocketOptions {
    /// Disable Nagle's algorithm on every link (latency over batching; the
    /// scenario layer exposes this as the `nodelay` param).
    bool nodelay = true;
    /// Enable the connection supervisor + catch-up plane even without a
    /// churn schedule: steady-state accepts of re-connections from known
    /// peers, re-dial with exponential backoff and deterministic jitter,
    /// half-open handshake deadlines, per-link replay logs, and a two-way
    /// hello carrying the receiver's frame count so the sender replays
    /// exactly the undelivered suffix. Each replay log keeps the newest
    /// 32 MiB of frames. Off (the default) keeps the one-way hello, so the
    /// wire format stays byte-identical to the pre-recovery transport.
    bool recovery = false;
  };

  explicit TcpCluster(Options opts);

  const Options& options() const noexcept { return opts_; }

 private:
  class Node;

  int open_socket(std::uint16_t& port) override;
  std::unique_ptr<SocketNode> make_node(NodeId id, int fd) override;

  Options opts_;
};

}  // namespace delphi::transport
