#pragma once
/// \file socket_node.hpp
/// The substrate-neutral core of a socket deployment: one protocol instance
/// hosted as a net::Context on its own OS thread (SocketNode), and the
/// cluster of n such nodes on 127.0.0.1 (SocketCluster).
///
/// TCP (transport/tcp.hpp) and UDP (transport/udp.hpp) keep only what
/// differs — how a frame reaches the wire and how the event loop waits —
/// and plug in through four hooks: enqueue_frame, serve, close_io and
/// reopen_io. Everything else lives here once:
///   * the net::Context surface: one serialization per send/broadcast,
///     honest bytes counted at the logical send (net::framed_size), local
///     self-delivery, a per-node rng, and now() in µs since the cluster
///     epoch (the simulator's "µs since run start");
///   * broadcast coalescing: a broadcast of a net::CoalescableBody waits
///     until the substrate's event loop ends its pass (end_pass), which
///     merges each channel's waiting broadcasts into one body and sends
///     that; nothing waits across a poll or a dark window;
///   * decode → expect_exhausted → dispatch, counting malformed payloads;
///   * the termination notice (a wakeup-fd signal, so wait() never ticks)
///     and error capture for failures();
///   * the churn schedule: dark windows, snapshot/restore of a
///     RestartableProtocol, downtime accounting;
///   * the cluster lifecycle: bind every socket, spawn one thread per node,
///     wait (failing fast on dead threads), stop, join, and the post-join
///     observers.

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/hmac.hpp"
#include "net/netem.hpp"
#include "net/protocol.hpp"
#include "net/wakeup.hpp"
#include "transport/frame.hpp"

namespace delphi::transport {

/// Recovers a typed message from payload bytes arriving on `channel`.
/// Throws SerializationError / ProtocolViolation on malformed input (the
/// transport counts and drops the frame).
using Decoder =
    std::function<net::MessagePtr(std::uint32_t channel, ByteReader& r)>;

/// Per-node transport counters (mirrors sim::NodeMetrics).
struct TransportMetrics {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< framed bytes, self-delivery excluded
  std::uint64_t msgs_delivered = 0;
  std::uint64_t malformed_dropped = 0;
  // Churn/recovery plane (all zero on churn-free runs):
  /// Successful link re-establishments this node took part in (dialer or
  /// acceptor side); UDP counts socket rebinds after a restart.
  std::uint64_t reconnects = 0;
  /// Catch-up traffic: frames replayed to a rejoining peer (TCP) /
  /// retransmitted datagrams (UDP). Transport recovery overhead — never part
  /// of bytes_sent, so cross-substrate honest-byte parity is unaffected.
  std::uint64_t catchup_frames = 0;
  std::uint64_t catchup_bytes = 0;
  /// Wall time this node spent dark across its restarts.
  std::uint64_t downtime_us = 0;
};

/// One scheduled restart on a socket substrate: node `id` stops its event
/// loop and closes every socket at `down_us` (µs since cluster start), then
/// rebinds at `up_us`.
struct ChurnWindow {
  NodeId id = 0;
  std::int64_t down_us = 0;
  std::int64_t up_us = 0;
};

/// A node thread that died with an error: which node and why (exception
/// text, typically carrying errno). Recorded by SocketCluster::wait().
struct NodeFailure {
  NodeId id = 0;
  std::string message;

  bool operator==(const NodeFailure&) const = default;
};

/// Options every socket substrate takes; TcpCluster::Options and
/// UdpMesh::Options add their own knobs on top.
struct SocketOptions {
  std::size_t n = 4;
  /// HMAC-authenticate every frame (pairwise keys from `seed`).
  bool auth = true;
  /// Master secret / per-node RNG / netem schedule seed.
  std::uint64_t seed = 1;
  /// wait() gives up after this many milliseconds of wall time.
  std::int64_t timeout_ms = 30'000;
  /// Network emulation applied per directed link at the send boundary
  /// (inert by default).
  net::netem::Config netem;
  /// Churn schedule (wall µs since cluster start). A dark node closes its
  /// sockets and rebinds the same port at up_us; a RestartableProtocol is
  /// snapshotted at down and restored from bytes at up.
  std::vector<ChurnWindow> churn;
};

/// A frame or datagram the netem shim holds back from the wire until
/// `release`; ties break by the shim's `order`, which realizes the burst
/// adversary's within-window LIFO.
template <typename T>
struct Held {
  SimTime release = 0;
  std::uint64_t order = 0;
  NodeId to = 0;
  T item;

  bool operator>(const Held& o) const {
    return release != o.release ? release > o.release : order > o.order;
  }
};

/// Held items, earliest release first.
template <typename T>
using HoldbackQueue =
    std::priority_queue<Held<T>, std::vector<Held<T>>, std::greater<>>;

/// POSIX plumbing shared by both substrates.
namespace sock {

/// Throw Error("<what>: <strerror(errno)>").
[[noreturn]] void sys_fail(const std::string& what);

void set_nonblocking(int fd);

sockaddr_in loopback_addr(std::uint16_t port);

/// socket(2) of `type` bound on 127.0.0.1:`port`. Port 0 means
/// OS-assigned; the resolved port is written back. A nonzero port is a
/// restarted node reclaiming its published identity.
int bind_loopback(int type, std::uint16_t& port);

}  // namespace sock

class SocketCluster;

/// One node of a socket cluster: hosts the protocol as its net::Context and
/// runs the substrate's serve() on the node's own thread. Never touches
/// other nodes.
class SocketNode : public net::Context {
 public:
  using Clock = std::chrono::steady_clock;

  /// Creates this node's protocol from the cluster's factory.
  SocketNode(SocketCluster& cluster, NodeId self, const SocketOptions& opts);

  /// Its thread holds its address.
  SocketNode(const SocketNode&) = delete;
  SocketNode& operator=(const SocketNode&) = delete;

  // ---- net::Context -------------------------------------------------------
  NodeId self() const final { return self_; }
  std::size_t n() const final { return n_; }
  /// Microseconds since the cluster epoch — the clock the netem shim and
  /// the churn schedule run on (cluster-relative, like sim time).
  SimTime now() const final;
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) final;
  /// A net::CoalescableBody waits for end_pass(); any other body leaves
  /// now, as every send does.
  void broadcast(std::uint32_t channel, net::MessagePtr msg) final;
  void charge_compute(SimTime) final {}  // real cycles are already spent
  Rng& rng() final { return rng_; }

  // ---- lifecycle ----------------------------------------------------------

  /// Entire node life: serve() until stop or error, then leave the
  /// protocol harvestable and signal the exit. Runs on the node's thread.
  void run(const std::atomic<bool>& stop);

  /// Interrupt this node's (possibly indefinite) poll. Any thread.
  void wake() noexcept { wake_.signal(); }

  std::atomic<bool> done{false};
  /// This node's thread has returned from run() (error or stop).
  std::atomic<bool> exited{false};

  net::Protocol& protocol() { return *protocol_; }
  const TransportMetrics& metrics() const { return metrics_; }
  const std::string& error() const { return error_; }

 protected:
  // ---- substrate hooks ----------------------------------------------------

  /// Put one frame body for peer `to` (never self) on its way. The frame is
  /// already counted as sent.
  virtual void enqueue_frame(NodeId to, const SharedFrameBody& body) = 0;

  /// The node's connected life: bring up links if the substrate needs to,
  /// start_protocol(), then the event loop until `stop`.
  virtual void serve(const std::atomic<bool>& stop) = 0;

  /// Close every socket as a dark window begins.
  virtual void close_io() = 0;

  /// Rebind as a dark window ends (before the protocol is restored).
  virtual void reopen_io() = 0;

  // ---- machinery for the hooks --------------------------------------------

  /// on_start, then deliver what it sent to itself.
  void start_protocol();

  /// Decode one received payload and hand it to the protocol. A payload
  /// that fails to decode (or leaves bytes over) is counted and dropped.
  void deliver(NodeId from, std::uint32_t channel,
               std::span<const std::uint8_t> payload);

  /// Deliver every queued self-message (handlers may enqueue more).
  void drain_local();

  /// End one event-loop pass: merge each channel's held broadcasts into one
  /// body, send it to every peer and deliver it to self, and repeat while
  /// those self-deliveries hold more; then note_termination(). The loops
  /// call it at the top of every pass, before the churn check and their
  /// flush.
  void end_pass();

  /// Raise `done` (and wake wait()) once the protocol has terminated.
  void note_termination();

  /// Drive this node's restart schedule. Returns true while the node is
  /// dark, after parking until the restart time or a wake — the caller's
  /// loop re-checks stop and comes back.
  bool churn_dark();

  /// Start of the next dark window, or -1 if none is left.
  SimTime next_down_at() const;

  /// poll(2) timeout until node time `at`; -1 (block) when at < 0.
  int poll_ms_until(SimTime at) const;

  /// The HMAC midstates of the link to peer j; nullptr on plaintext links.
  const crypto::HmacKey* mac(NodeId j) const {
    return links_[j].mac ? &*links_[j].mac : nullptr;
  }

  /// This node's end of the link to each peer: the pairwise HMAC midstates
  /// (one key schedule per link lifetime, serving outgoing tags and
  /// verification alike) and the link's netem shim (inert unless
  /// configured).
  struct Link {
    std::optional<crypto::HmacKey> mac;
    net::netem::LinkShim shim;
  };

  const NodeId self_;
  const std::size_t n_;
  const bool auth_;
  std::vector<Link> links_;
  /// Signaled to interrupt this node's poll (stop requests, dark parking).
  net::WakeupFd wake_;
  TransportMetrics metrics_;

 private:
  void dispatch(NodeId from, std::uint32_t channel,
                const net::MessageBody& body);
  /// Encode once, post to every peer, and queue the self-delivery.
  void broadcast_now(std::uint32_t channel, net::MessagePtr msg);
  /// Count one logical frame and hand it to the substrate.
  void post(NodeId to, const SharedFrameBody& body);
  void go_down(SimTime up_at);
  void come_up();
  void restore_protocol();

  Clock::time_point epoch_;
  /// The cluster's factory: a snapshot restart rebuilds the protocol from it.
  const net::ProtocolFactory& factory_;
  std::unique_ptr<net::Protocol> protocol_;
  Decoder decoder_;
  net::WakeupFd& done_wake_;
  Rng rng_;
  std::deque<std::pair<std::uint32_t, net::MessagePtr>> local_;
  /// Coalescable broadcasts of the current pass; `order` is the position in
  /// broadcast order. Both vectors keep their capacity from pass to pass.
  struct HeldBroadcast {
    std::uint32_t channel = 0;
    std::uint32_t order = 0;
    net::MessagePtr msg;
  };
  std::vector<HeldBroadcast> held_broadcasts_;
  std::vector<net::MessagePtr> parts_;
  /// This node's own restart schedule (sorted by down_us) and dark state.
  std::vector<ChurnWindow> windows_;
  std::size_t next_window_ = 0;
  bool down_ = false;
  SimTime up_at_ = 0;
  SimTime down_since_ = 0;
  /// Serialized RestartableProtocol state across a dark window.
  std::vector<std::uint8_t> snapshot_;
  bool have_snapshot_ = false;
  std::string error_;
};

/// n nodes on 127.0.0.1, one OS thread each. The substrate binds the
/// sockets and builds the nodes; the lifecycle is shared:
///
///   cluster.start(factory, decoder);   // bind, spawn, start protocols
///   bool ok = cluster.wait();          // all protocols terminated?
///   auto& p = cluster.protocol(i);     // read outputs (after wait())
class SocketCluster {
 public:
  using Clock = SocketNode::Clock;
  /// Shared factory alias from net/protocol.hpp (same type the scenario
  /// runtimes consume).
  using ProtocolFactory = net::ProtocolFactory;

  /// Stops and joins every node thread.
  virtual ~SocketCluster();

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  /// Bind every node's socket, create the protocols, and spawn the node
  /// threads (each brings up its links, then starts its protocol). Call
  /// exactly once.
  void start(const ProtocolFactory& factory, Decoder decoder);

  /// Block until every node's protocol terminated, a node thread died, or
  /// the timeout expired; then stop and join all threads. Returns true iff
  /// all terminated; otherwise unfinished() names the nodes that had not.
  bool wait();

  /// Node ids whose protocols had not terminated when wait() gave up, in
  /// ascending order (empty iff wait() returned true). Only safe after
  /// wait() returned.
  const std::vector<NodeId>& unfinished() const;

  /// Nodes whose threads died with an error (exception text, typically
  /// carrying errno), in ascending id order. Only safe after wait()
  /// returned.
  const std::vector<NodeFailure>& failures() const;

  /// Node i's protocol. Only safe after wait() returned (threads joined).
  net::Protocol& protocol(NodeId id);

  /// Node i's transport counters. Only safe after wait() returned.
  const TransportMetrics& metrics(NodeId id) const;

  /// Resolved port of node i (set by start()).
  std::uint16_t port(NodeId id) const;

 protected:
  /// Validates n and the churn windows; `name` prefixes error messages.
  SocketCluster(const SocketOptions& opts, const char* name);

  /// Bind one node's socket before any thread starts; writes its port.
  virtual int open_socket(std::uint16_t& port) = 0;

  /// Build node `id` around the socket open_socket() returned for it.
  virtual std::unique_ptr<SocketNode> make_node(NodeId id, int fd) = 0;

  const crypto::KeyStore& keys() const noexcept { return keys_; }
  const std::vector<std::uint16_t>& ports() const noexcept { return ports_; }

 private:
  friend class SocketNode;

  /// Set the stop flag, wake every node's event loop, and join the node
  /// threads (idempotent).
  void stop_and_join();
  void require_joined(const char* what) const;
  SocketNode& joined_node(NodeId id, const char* what) const;

  const char* name_;
  std::int64_t timeout_ms_;
  crypto::KeyStore keys_;
  ProtocolFactory factory_;
  Decoder decoder_;
  /// One shared epoch so every node's shim and churn schedule run against
  /// the same t=0.
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<SocketNode>> nodes_;
  std::vector<std::uint16_t> ports_;
  std::vector<NodeId> unfinished_;
  std::vector<NodeFailure> failures_;
  std::atomic<bool> stop_{false};
  /// Signaled by nodes on protocol termination (and thread exit) so wait()
  /// blocks in poll() instead of sleeping on a timer.
  net::WakeupFd done_wake_;
  bool started_ = false;
  bool joined_ = false;
  /// Last: the node threads use everything above.
  std::vector<std::thread> threads_;
};

}  // namespace delphi::transport
