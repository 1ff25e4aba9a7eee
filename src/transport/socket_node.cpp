#include "transport/socket_node.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace delphi::transport {

// --------------------------------------------------------------------- sock

namespace sock {

void sys_fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

int bind_loopback(int type, std::uint16_t& port) {
  const char* kind = type == SOCK_STREAM ? "tcp" : "udp";
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) sys_fail(std::string("socket(") + kind + ")");
  // A stream listener's accepted links inherit SO_REUSEADDR, which is what
  // lets a restart reclaim the port while they linger in TIME_WAIT. A
  // datagram socket needs it only to reclaim: on an OS-assigned bind it
  // would let the kernel hand two nodes the same port.
  if (type == SOCK_STREAM || port != 0) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    sys_fail(std::string("bind(") + kind + " port " + std::to_string(port) +
             ")");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    sys_fail(std::string("getsockname(") + kind + ")");
  }
  port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace sock

// --------------------------------------------------------------------- Node

SocketNode::SocketNode(SocketCluster& cluster, NodeId self,
                       const SocketOptions& opts)
    : self_(self),
      n_(opts.n),
      auth_(opts.auth),
      epoch_(cluster.epoch_),
      factory_(cluster.factory_),
      protocol_(cluster.factory_(self)),
      decoder_(cluster.decoder_),
      done_wake_(cluster.done_wake_),
      rng_(opts.seed ^ (0x9e3779b97f4a7c15ULL * (self + 1))) {
  links_.resize(n_);
  for (NodeId j = 0; j < n_; ++j) {
    if (j == self_) continue;
    if (auth_) links_[j].mac.emplace(cluster.keys_.channel_key(self_, j));
    if (opts.netem.active()) {
      links_[j].shim = net::netem::LinkShim(opts.netem, self_, j);
    }
  }
  for (const auto& w : opts.churn) {
    if (w.id == self_) windows_.push_back(w);
  }
  std::sort(windows_.begin(), windows_.end(),
            [](const ChurnWindow& a, const ChurnWindow& b) {
              return a.down_us < b.down_us;
            });
}

SimTime SocketNode::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

void SocketNode::send(NodeId to, std::uint32_t channel, net::MessagePtr msg) {
  DELPHI_ASSERT(to < n_, "socket send: bad destination");
  if (to == self_) {
    local_.emplace_back(channel, std::move(msg));
    return;
  }
  post(to, encode_frame_body(channel, *msg, auth_));
}

void SocketNode::broadcast(std::uint32_t channel, net::MessagePtr msg) {
  if (dynamic_cast<const net::CoalescableBody*>(msg.get()) != nullptr) {
    held_broadcasts_.push_back(
        {channel, static_cast<std::uint32_t>(held_broadcasts_.size()),
         std::move(msg)});
    return;
  }
  broadcast_now(channel, std::move(msg));
}

void SocketNode::end_pass() {
  while (!held_broadcasts_.empty()) {
    // Group by channel, broadcast order within each: a sort, so many
    // sessions sharing one pass cost m log m, not a scan per broadcast.
    auto& held = held_broadcasts_;
    std::sort(held.begin(), held.end(),
              [](const HeldBroadcast& a, const HeldBroadcast& b) {
                return a.channel != b.channel ? a.channel < b.channel
                                              : a.order < b.order;
              });
    for (std::size_t i = 0; i < held.size();) {
      std::size_t end = i + 1;
      while (end < held.size() && held[end].channel == held[i].channel) ++end;
      net::MessagePtr msg = std::move(held[i].msg);
      if (end - i > 1) {
        parts_.push_back(std::move(msg));
        for (std::size_t k = i + 1; k < end; ++k) {
          parts_.push_back(std::move(held[k].msg));
        }
        msg = static_cast<const net::CoalescableBody&>(*parts_.front())
                  .coalesce(parts_);
        parts_.clear();
      }
      broadcast_now(held[i].channel, std::move(msg));
      i = end;
    }
    held.clear();
    drain_local();  // its handlers may hold the next round
  }
  note_termination();
}

void SocketNode::broadcast_now(std::uint32_t channel, net::MessagePtr msg) {
  // One serialization for all destinations: the body (length prefix +
  // channel + payload) is immutable and shared; only per-link tags differ.
  const SharedFrameBody body = encode_frame_body(channel, *msg, auth_);
  for (NodeId j = 0; j < n_; ++j) {
    if (j == self_) {
      local_.emplace_back(channel, msg);
    } else {
      post(j, body);
    }
  }
}

void SocketNode::post(NodeId to, const SharedFrameBody& body) {
  // Counted at the logical send (the simulator's framed_size accounting),
  // even if the link has died since: retransmissions, replays, acks and
  // datagram headers are transport overhead, not protocol traffic.
  ++metrics_.msgs_sent;
  metrics_.bytes_sent += frame_wire_size(*body, auth_);
  enqueue_frame(to, body);
}

void SocketNode::run(const std::atomic<bool>& stop) {
  try {
    serve(stop);
  } catch (const std::exception& e) {
    error_ = e.what();
  }
  if (have_snapshot_) {
    // Stopped (or died) while dark: rebuild the protocol from its snapshot
    // so outputs stay harvestable after the join.
    try {
      restore_protocol();
    } catch (const std::exception& e) {
      if (error_.empty()) error_ = e.what();
    }
  }
  // A thread that exits un-terminated is dead for good; wake wait() so it
  // can fail fast instead of sleeping out the whole deadline.
  exited.store(true, std::memory_order_release);
  done_wake_.signal();
}

void SocketNode::start_protocol() {
  protocol_->on_start(*this);
  drain_local();
  note_termination();
}

void SocketNode::deliver(NodeId from, std::uint32_t channel,
                         std::span<const std::uint8_t> payload) {
  try {
    // The decoder reads straight out of the receive buffer.
    ByteReader r(payload);
    const net::MessagePtr msg = decoder_(channel, r);
    r.expect_exhausted();
    dispatch(from, channel, *msg);
  } catch (const SerializationError&) {
    // Valid frame, undecodable payload (a garbage-spraying peer): count and
    // drop; the link stays up.
    ++metrics_.malformed_dropped;
  } catch (const ProtocolViolation&) {
    ++metrics_.malformed_dropped;
  }
  drain_local();
  note_termination();
}

void SocketNode::drain_local() {
  while (!local_.empty()) {
    auto [channel, msg] = std::move(local_.front());
    local_.pop_front();
    dispatch(self_, channel, *msg);
  }
}

void SocketNode::dispatch(NodeId from, std::uint32_t channel,
                          const net::MessageBody& body) {
  try {
    protocol_->on_message(*this, from, channel, body);
    ++metrics_.msgs_delivered;
  } catch (const ProtocolViolation&) {
    // The simulator's rule: only a bad message is dropped. Any other error
    // raised inside the handler (a send the transport refuses, a broken
    // invariant) kills the node, so it surfaces in failures().
    ++metrics_.malformed_dropped;
  } catch (const SerializationError&) {
    ++metrics_.malformed_dropped;
  }
}

void SocketNode::note_termination() {
  if (protocol_ == nullptr) return;  // dark window of a snapshot restart
  if (!done.load(std::memory_order_relaxed) && protocol_->terminated()) {
    done.store(true, std::memory_order_release);
    done_wake_.signal();  // wait() blocks on this instead of a timer
  }
}

// -------------------------------------------------------------------- churn

bool SocketNode::churn_dark() {
  if (!down_ && next_window_ < windows_.size() &&
      now() >= windows_[next_window_].down_us) {
    go_down(windows_[next_window_].up_us);
    ++next_window_;
  }
  if (down_ && now() >= up_at_) come_up();
  if (!down_) return false;
  // Every socket is closed: nothing to do but wait for the restart clock or
  // the cluster stop signal.
  pollfd pf{wake_.fd(), POLLIN, 0};
  ::poll(&pf, 1, poll_ms_until(up_at_));
  if (pf.revents != 0) wake_.drain();
  return true;
}

SimTime SocketNode::next_down_at() const {
  return next_window_ < windows_.size() ? windows_[next_window_].down_us : -1;
}

int SocketNode::poll_ms_until(SimTime at) const {
  if (at < 0) return -1;
  const SimTime ms = (at - now()) / 1000 + 1;
  return static_cast<int>(std::clamp<SimTime>(ms, 0, 60'000));
}

/// The node goes dark: the substrate closes its sockets, and a
/// RestartableProtocol is serialized and destroyed — the rejoin rebuilds it
/// from bytes, proving the snapshot path end to end. Other protocols keep
/// their in-memory state across the dark window and rely on message-level
/// redundancy to catch up.
void SocketNode::go_down(SimTime up_at) {
  down_ = true;
  up_at_ = up_at;
  down_since_ = now();
  close_io();
  if (auto* rp = dynamic_cast<net::RestartableProtocol*>(protocol_.get())) {
    ByteWriter w(256);
    rp->snapshot(w);
    snapshot_ = w.take();
    have_snapshot_ = true;
    protocol_.reset();
  }
}

void SocketNode::come_up() {
  down_ = false;
  metrics_.downtime_us += static_cast<std::uint64_t>(now() - down_since_);
  reopen_io();
  if (have_snapshot_) restore_protocol();
  drain_local();
  end_pass();  // the caller's pass polls next: hold nothing across it
}

void SocketNode::restore_protocol() {
  protocol_ = factory_(self_);
  auto* rp = dynamic_cast<net::RestartableProtocol*>(protocol_.get());
  DELPHI_ASSERT(rp != nullptr, "socket restart: factory lost snapshot support");
  ByteReader r(snapshot_);
  rp->restore(r);
  snapshot_.clear();
  have_snapshot_ = false;
}

// ------------------------------------------------------------------ Cluster

SocketCluster::SocketCluster(const SocketOptions& opts, const char* name)
    : name_(name),
      timeout_ms_(opts.timeout_ms),
      keys_(opts.seed, opts.n),
      ports_(opts.n, 0) {
  const std::string who(name);
  if (opts.n < 1) throw ConfigError(who + ": n must be >= 1");
  for (const auto& w : opts.churn) {
    if (w.id >= opts.n) throw ConfigError(who + ": churn id out of range");
    if (w.up_us <= w.down_us) {
      throw ConfigError(who + ": churn window needs up_us > down_us");
    }
  }
}

SocketCluster::~SocketCluster() { stop_and_join(); }

void SocketCluster::stop_and_join() {
  stop_.store(true);
  for (auto& node : nodes_) node->wake();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void SocketCluster::start(const ProtocolFactory& factory, Decoder decoder) {
  DELPHI_ASSERT(!started_, std::string(name_) + ": start() called twice");
  started_ = true;
  factory_ = factory;
  decoder_ = std::move(decoder);

  // Bind every socket before any thread runs, so every connect() finds a
  // live backlog and no datagram goes to an unbound port.
  std::vector<int> fds(ports_.size(), -1);
  for (NodeId i = 0; i < ports_.size(); ++i) fds[i] = open_socket(ports_[i]);

  epoch_ = Clock::now();
  nodes_.reserve(ports_.size());
  for (NodeId i = 0; i < ports_.size(); ++i) {
    nodes_.push_back(make_node(i, fds[i]));
  }
  threads_.reserve(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    threads_.emplace_back([this, i] { nodes_[i]->run(stop_); });
  }
}

bool SocketCluster::wait() {
  DELPHI_ASSERT(started_, std::string(name_) + ": wait() before start()");
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms_);
  // Block on the done wakeup-fd (nodes signal termination transitions and
  // thread exits) instead of polling flags on a timer.
  while (true) {
    bool all_done = true;
    bool dead_node = false;
    for (const auto& node : nodes_) {
      if (node->done.load(std::memory_order_acquire)) continue;
      all_done = false;
      // An exited-but-unterminated node (mesh failure, protocol exception)
      // can never become done, so the run's outcome is already a fixed
      // false — fail fast instead of sleeping out the deadline.
      if (node->exited.load(std::memory_order_acquire)) dead_node = true;
    }
    if (all_done || dead_node) break;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{done_wake_.fd(), POLLIN, 0};
    // Clamped so arbitrarily large timeouts can't overflow poll's int arg;
    // the loop re-checks the deadline after every wakeup anyway.
    ::poll(&pfd, 1,
           static_cast<int>(std::min<std::int64_t>(remaining.count(), 60'000)));
    done_wake_.drain();
  }
  stop_and_join();
  // With threads joined the flags are final: record who never terminated so
  // timeouts are diagnosable (which nodes, not just "false").
  unfinished_.clear();
  failures_.clear();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->done.load(std::memory_order_acquire)) {
      unfinished_.push_back(i);
    }
    if (!nodes_[i]->error().empty()) {
      failures_.push_back({i, nodes_[i]->error()});
    }
  }
  joined_ = true;
  // The joined flags are authoritative (a node may have terminated between
  // the last poll and the join).
  return unfinished_.empty();
}

void SocketCluster::require_joined(const char* what) const {
  DELPHI_ASSERT(joined_, std::string(name_) + ": " + what + " before wait()");
}

SocketNode& SocketCluster::joined_node(NodeId id, const char* what) const {
  require_joined(what);
  DELPHI_ASSERT(id < nodes_.size(), std::string(name_) + ": bad node id");
  return *nodes_[id];
}

const std::vector<NodeId>& SocketCluster::unfinished() const {
  require_joined("unfinished()");
  return unfinished_;
}

const std::vector<NodeFailure>& SocketCluster::failures() const {
  require_joined("failures()");
  return failures_;
}

net::Protocol& SocketCluster::protocol(NodeId id) {
  return joined_node(id, "protocol()").protocol();
}

const TransportMetrics& SocketCluster::metrics(NodeId id) const {
  return joined_node(id, "metrics()").metrics();
}

std::uint16_t SocketCluster::port(NodeId id) const {
  DELPHI_ASSERT(id < ports_.size(), std::string(name_) + ": bad node id");
  return ports_[id];
}

}  // namespace delphi::transport
