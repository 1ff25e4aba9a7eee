#include "transport/tcp.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace delphi::transport {

namespace {

using Clock = std::chrono::steady_clock;
using sock::loopback_addr;
using sock::set_nonblocking;
using sock::sys_fail;

/// First bytes on every link: magic + the initiator's node id, plus (on
/// authenticated deployments) an HMAC tag under the pairwise key — without
/// it, a keyless attacker racing the mesh bring-up could claim a legitimate
/// node id and black-hole that link (frames would fail their MACs, but the
/// real peer's connection would already have been rejected as a duplicate).
constexpr std::uint32_t kHelloMagic = 0x44504849;  // "IHPD" LE == "DPHI"
constexpr std::size_t kHelloPrefixSize = 8;

/// Per-link replay log byte budget in recovery mode; drop-oldest beyond it
/// (graceful degradation: a rejoining peer that out-lived the budget misses
/// the dropped prefix and relies on protocol-level redundancy).
constexpr std::size_t kReplayBudgetBytes = std::size_t{32} << 20;

/// Recovery-mode hellos (Options::recovery) append a u64 after the prefix:
/// how many complete frames the sender has received from the destination on
/// this link across all its incarnations. The other side replays exactly the
/// suffix of its send log the count says is missing. Legacy (non-recovery)
/// hellos stay byte-identical to the pre-recovery wire format.
std::size_t hello_size(bool auth, bool recovery = false) {
  return kHelloPrefixSize + (recovery ? 8 : 0) +
         (auth ? crypto::kMacTagSize : 0);
}

crypto::Digest hello_tag(const crypto::Key& key, NodeId initiator,
                         const std::uint64_t* recv = nullptr) {
  ByteWriter w(24);
  w.u32(kHelloMagic);
  w.u32(initiator);
  if (recv != nullptr) w.u64(*recv);  // tag covers the receive count
  w.str("hello");
  return crypto::hmac_sha256(key, w.data());
}

/// How long a reconnect attempt or a pending steady-state accept may sit
/// without completing its hello before it is declared half-open and dropped.
constexpr SimTime kDialTimeoutUs = 2'000'000;

/// The receive buffer, and so the most bytes a node reads from one peer in
/// one event-loop pass (see read_peer).
constexpr std::size_t kReadBufferBytes = 64 * 1024;

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: latency tuning, not correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Listening socket on 127.0.0.1:`port` (0 = OS-assigned, written back). A
/// restarted node passes its published port: peers re-dial the port they
/// were given at cluster start.
int make_listen_socket(std::uint16_t& port) {
  const int fd = sock::bind_loopback(SOCK_STREAM, port);
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    sys_fail("listen");
  }
  return fd;
}

std::vector<std::uint8_t> encode_hello(NodeId self, const crypto::Key* key,
                                       const std::uint64_t* recv = nullptr) {
  ByteWriter w(hello_size(key != nullptr, recv != nullptr));
  w.u32(kHelloMagic);
  w.u32(self);
  if (recv != nullptr) w.u64(*recv);
  if (key != nullptr) w.raw(hello_tag(*key, self, recv));
  return w.take();
}

/// write(2) on a link without SIGPIPE: a peer that reset the link (a dark
/// node closing with unread bytes) makes this fail with EPIPE, and the
/// caller drops the link, instead of killing the process.
ssize_t send_some(int fd, const std::uint8_t* data, std::size_t len) {
  return ::send(fd, data, len, MSG_NOSIGNAL);
}

/// Full write on a non-blocking fd with a short bounded poll budget (hellos
/// are <= 48 bytes, so a stall means the peer is gone or wedged). Returns
/// false if it could not complete — the caller drops the connection.
bool write_fully(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  int stalls = 0;
  while (off < data.size()) {
    const ssize_t k = send_some(fd, data.data() + off, data.size() - off);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && stalls++ < 200) {
      pollfd pf{fd, POLLOUT, 0};
      ::poll(&pf, 1, 10);
      continue;
    }
    return false;
  }
  return true;
}

/// Read more of a `want`-byte hello into `buf` from a non-blocking fd.
/// Returns false if the peer hung up or the socket failed first.
bool read_hello(int fd, std::vector<std::uint8_t>& buf, std::size_t want) {
  while (buf.size() < want) {
    std::uint8_t tmp[64];
    const ssize_t k = ::read(fd, tmp, want - buf.size());
    if (k <= 0) return k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    buf.insert(buf.end(), tmp, tmp + k);
  }
  return true;
}

}  // namespace

// --------------------------------------------------------------------- Node

class TcpCluster::Node final : public SocketNode {
 public:
  Node(TcpCluster& cluster, NodeId self, int listen_fd)
      : SocketNode(cluster, self, cluster.opts_),
        opts_(cluster.opts_),
        keys_(cluster.keys()),
        ports_(cluster.ports()),
        listen_fd_(listen_fd),
        // Backoff jitter gets its own deterministic stream so the
        // supervisor never perturbs the protocol's rng() draws.
        jitter_rng_(opts_.seed ^ (0xc2b2ae3d27d4eb4fULL * (self + 2))),
        recovery_(opts_.recovery) {
    peers_.resize(opts_.n);
    for (NodeId j = 0; j < opts_.n; ++j) peers_[j].parser = FrameParser(mac(j));
    rbuf_.resize(kReadBufferBytes);
  }

  ~Node() override {
    for (auto& p : peers_) {
      if (p.fd >= 0) ::close(p.fd);
      if (p.dial_fd >= 0) ::close(p.dial_fd);
    }
    for (auto& pa : accepts_) ::close(pa.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

 private:
  /// One outbound frame whose boundaries still matter (netem holdback,
  /// replay log): the shared destination-independent body and this link's
  /// MAC tag (meaningful only on authenticated links).
  struct PendingFrame {
    SharedFrameBody body;
    crypto::Digest tag;
  };

  struct Peer {
    int fd = -1;
    FrameParser parser;
    /// Wire bytes queued for this link; out[0, out_pos) is already written
    /// and is compacted away lazily (a drained buffer on the next append).
    /// Keeps the capacity of its deepest backlog.
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool pending() const noexcept { return out_pos < out.size(); }
    /// Last write hit EAGAIN: wait for POLLOUT instead of re-trying.
    bool blocked = false;

    // ---- recovery mode only (inert when Options::recovery is off) ----
    /// Frames ever enqueued on this link (== log_start + log.size()).
    std::uint64_t sent_count = 0;
    /// Sequence number of log.front(); earlier frames fell off the budget.
    std::uint64_t log_start = 0;
    /// Bounded replay log of sent frames (drop-oldest past the byte
    /// budget). A rejoining peer's hello says how many frames it received;
    /// the suffix beyond that is replayed.
    std::deque<PendingFrame> log;
    std::size_t log_bytes = 0;
    /// Complete frames parsed from this peer across all link incarnations
    /// (the cumulative ack our hellos carry).
    std::uint64_t recv_count = 0;
    // Re-dial state machine (this side dials iff self > peer id, mirroring
    // the bring-up rule).
    int dial_fd = -1;
    bool dial_hello_sent = false;
    std::vector<std::uint8_t> dial_buf;  ///< reply-hello bytes so far
    SimTime redial_at = -1;              ///< next attempt (-1: none due)
    SimTime dial_deadline = 0;           ///< abort a stalled attempt
    std::uint32_t redial_attempts = 0;
  };

  /// An accepted connection whose hello has not fully arrived; dropped at
  /// `deadline` (half-open / slow-loris defense on the steady-state path).
  struct PendingAccept {
    int fd = -1;
    std::vector<std::uint8_t> buf;
    SimTime deadline = 0;
  };

  void enqueue_frame(NodeId to, const SharedFrameBody& body) override {
    Peer& p = peers_[to];
    if (!recovery_ && p.fd < 0) {
      return;  // link closed for good: bytes would never reach the wire
    }
    PendingFrame pf;
    pf.body = body;
    if (auth_) pf.tag = frame_tag(*mac(to), *body);
    if (recovery_) log_frame(p, pf);
    if (p.fd < 0) return;  // link down: the log replays this on reconnect
    if (net::netem::LinkShim& shim = links_[to].shim; shim.active()) {
      // Delay-only on TCP (drop verdicts ignored — see Options::netem): the
      // frame waits on the holdback heap, and the event loop appends it to
      // the link's buffer when due. A frame due now waits there too:
      // appended directly, it would overtake earlier frames that are due but
      // not yet released.
      const auto v = shim.on_send(now(), frame_wire_size(*body, auth_));
      held_.push({v.release_us, v.order, to, std::move(pf)});
      return;
    }
    append_frame(p, pf);
  }

  /// Append a frame's wire bytes (body, then tag) to the link's output
  /// buffer, first compacting the written prefix once it is half the
  /// buffer (as FrameParser::feed does).
  void append_frame(Peer& p, const PendingFrame& pf) {
    if (p.out_pos > 0 && p.out_pos >= p.out.size() / 2) {
      p.out.erase(p.out.begin(),
                  p.out.begin() + static_cast<std::ptrdiff_t>(p.out_pos));
      p.out_pos = 0;
    }
    p.out.insert(p.out.end(), pf.body->begin(), pf.body->end());
    if (auth_) p.out.insert(p.out.end(), pf.tag.begin(), pf.tag.end());
  }

  /// Append every held frame whose release time has arrived to its link's
  /// buffer, in (release, order) order — which realizes the burst
  /// adversary's within-window LIFO on a real stream.
  void release_held(SimTime now) {
    while (!held_.empty() && held_.top().release <= now) {
      const Held<PendingFrame>& h = held_.top();
      if (peers_[h.to].fd >= 0) append_frame(peers_[h.to], h.item);
      held_.pop();
    }
  }

  // ---- recovery plane -----------------------------------------------------

  /// Append a sent frame to the link's bounded replay log (drop-oldest past
  /// the byte budget — graceful degradation while the peer is down).
  void log_frame(Peer& p, const PendingFrame& pf) {
    ++p.sent_count;
    p.log.push_back(pf);
    p.log_bytes += frame_wire_size(*pf.body, auth_);
    while (p.log_bytes > kReplayBudgetBytes && !p.log.empty()) {
      p.log_bytes -= frame_wire_size(*p.log.front().body, auth_);
      p.log.pop_front();
      ++p.log_start;
    }
  }

  /// The peer a hello proves itself to be, or n if it proves nothing (bad
  /// magic, out-of-range id, forged tag). Recovery hellos carry the
  /// sender's receive count, extracted into `*recv_out`; legacy hellos pass
  /// nullptr.
  NodeId hello_sender(std::span<const std::uint8_t> buf,
                      std::uint64_t* recv_out) const {
    ByteReader r(buf);
    const bool magic_ok = r.u32() == kHelloMagic;
    const NodeId who = r.u32();
    if (!magic_ok || who >= opts_.n || who == self_) return opts_.n;
    if (recv_out != nullptr) *recv_out = r.u64();
    if (!opts_.auth) return who;
    crypto::Digest received;
    const auto tag = r.raw(crypto::kMacTagSize);
    std::memcpy(received.data(), tag.data(), received.size());
    return crypto::digest_equal(
               hello_tag(keys_.channel_key(self_, who), who, recv_out),
               received)
               ? who
               : opts_.n;
  }

  /// Write our hello on the link to `peer`; in recovery mode it carries how
  /// many frames we have received from that peer.
  bool send_hello(int fd, NodeId peer) {
    const crypto::Key* key =
        opts_.auth ? &keys_.channel_key(self_, peer) : nullptr;
    const std::uint64_t recv = peers_[peer].recv_count;
    return write_fully(fd,
                       encode_hello(self_, key, recovery_ ? &recv : nullptr));
  }

  /// Arm the next dial attempt for a lower-id peer: exponential backoff
  /// (2 ms base, doubling per failure, 250 ms cap) plus deterministic
  /// jitter from the node's seeded jitter stream. Higher-id peers re-dial
  /// us, so for them this is a no-op. Gives up once the next attempt would
  /// land past the cluster deadline (capped retries).
  void schedule_redial(NodeId j, Peer& p, bool reset_backoff) {
    if (j >= self_) return;  // that side initiates (same rule as bring-up)
    if (reset_backoff) p.redial_attempts = 0;
    constexpr SimTime kBase = 2'000;
    constexpr SimTime kCap = 250'000;
    SimTime delay =
        std::min(kCap, kBase << std::min<std::uint32_t>(p.redial_attempts, 7));
    delay += static_cast<SimTime>(
        jitter_rng_.below(static_cast<std::uint64_t>(delay / 4 + 1)));
    const SimTime at = now() + delay;
    if (at > opts_.timeout_ms * 1'000) {
      p.redial_at = -1;  // nothing past the run deadline can matter
      return;
    }
    p.redial_at = at;
  }

  /// Connection supervisor pass: abort stalled dial attempts, start due
  /// re-dials, and drop half-open pending accepts.
  void supervisor_tick() {
    const SimTime t = now();
    for (NodeId j = 0; j < self_; ++j) {
      Peer& p = peers_[j];
      if (p.dial_fd >= 0 && t >= p.dial_deadline) {
        // Half-open: the connect or the hello reply never completed.
        fail_dial(j, p);
      }
      if (p.fd < 0 && p.dial_fd < 0 && p.redial_at >= 0 &&
          t >= p.redial_at) {
        start_dial(j, p);
      }
    }
    for (std::size_t a = 0; a < accepts_.size();) {
      if (t >= accepts_[a].deadline) {
        ::close(accepts_[a].fd);
        accepts_[a] = std::move(accepts_.back());
        accepts_.pop_back();
      } else {
        ++a;
      }
    }
  }

  /// Begin one non-blocking reconnect attempt to a lower-id peer.
  void start_dial(NodeId j, Peer& p) {
    p.redial_at = -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(redial)");
    set_nonblocking(fd);
    sockaddr_in addr = loopback_addr(ports_[j]);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      ++p.redial_attempts;
      schedule_redial(j, p, false);
      return;
    }
    p.dial_fd = fd;
    p.dial_hello_sent = false;
    p.dial_buf.clear();
    p.dial_deadline = now() + kDialTimeoutUs;
  }

  /// Advance a dial attempt once its socket is ready: finish the connect,
  /// send our hello, and — recovery hellos are two-way — read and verify
  /// the peer's reply. Returns true once the socket is adopted as the link.
  bool progress_dial(NodeId j, Peer& p, bool bringup) {
    if (p.dial_fd < 0) return false;
    if (!p.dial_hello_sent) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(p.dial_fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (opts_.nodelay) set_nodelay(p.dial_fd);
      if (err != 0 || !send_hello(p.dial_fd, j)) {
        fail_dial(j, p);
        return false;
      }
      p.dial_hello_sent = true;
      if (recovery_) return false;  // the reply comes on a later POLLIN
    }
    std::uint64_t peer_recv = 0;
    if (recovery_) {
      const std::size_t want = hello_size(opts_.auth, true);
      if (!read_hello(p.dial_fd, p.dial_buf, want)) {
        fail_dial(j, p);  // EOF or hard error before the full reply
        return false;
      }
      if (p.dial_buf.size() < want) return false;
      if (hello_sender(p.dial_buf, &peer_recv) != j) {
        fail_dial(j, p);
        return false;
      }
    }
    const int fd = p.dial_fd;
    p.dial_fd = -1;
    abort_dial(p);
    adopt_link(j, fd, peer_recv, bringup);
    return true;
  }

  void fail_dial(NodeId j, Peer& p) {
    abort_dial(p);
    ++p.redial_attempts;
    schedule_redial(j, p, false);
  }

  void abort_dial(Peer& p) {
    if (p.dial_fd >= 0) {
      ::close(p.dial_fd);
      p.dial_fd = -1;
    }
    p.dial_hello_sent = false;
    p.dial_buf.clear();
  }

  /// Take every waiting connection; its hello completes asynchronously in
  /// progress_accepts() (under a deadline once the mesh is up).
  void accept_pending() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      if (opts_.nodelay) set_nodelay(fd);
      set_nonblocking(fd);
      accepts_.push_back({fd, {}, now() + kDialTimeoutUs});
    }
  }

  /// Advance every pending accept's hello; returns how many became links.
  /// At bring-up each higher id links once; afterwards a known higher-id
  /// peer is re-establishing its link (it restarted, or we did and it
  /// noticed the EOF).
  std::size_t progress_accepts(bool bringup) {
    const std::size_t want = hello_size(opts_.auth, recovery_);
    std::size_t linked = 0;
    for (std::size_t a = 0; a < accepts_.size();) {
      PendingAccept& pa = accepts_[a];
      const bool alive = read_hello(pa.fd, pa.buf, want);
      if (alive && pa.buf.size() < want) {
        ++a;
        continue;
      }
      std::uint64_t peer_recv = 0;
      const NodeId who =
          alive ? hello_sender(pa.buf, recovery_ ? &peer_recv : nullptr)
                : self_;
      // A recovery hello is two-way: reply with our receive count; the
      // dialer replays its undelivered suffix once it has read it.
      if (who > self_ && who < opts_.n &&
          !(bringup && peers_[who].fd >= 0) &&
          (!recovery_ || send_hello(pa.fd, who))) {
        adopt_link(who, pa.fd, peer_recv, bringup);
        ++linked;
      } else {
        ::close(pa.fd);  // stranger, forger, duplicate, or hang-up: reject
      }
      accepts_[a] = std::move(accepts_.back());
      accepts_.pop_back();
    }
    return linked;
  }

  /// Install a freshly handshaken socket as peer j's link and replay the
  /// log suffix the peer's hello says it is missing. A still-open old fd is
  /// replaced (reconnect-during-handshake race: the newest handshake wins).
  void adopt_link(NodeId j, int fd, std::uint64_t peer_recv, bool bringup) {
    Peer& p = peers_[j];
    drop_link(j);
    p.fd = fd;
    p.redial_at = -1;
    drop_held_for(j);
    if (!bringup) ++metrics_.reconnects;
    replay_to(p, peer_recv);
  }

  /// Remove netem-held frames destined to j: they are in the replay log,
  /// and the fresh handshake replays them — releasing the held copies too
  /// would deliver duplicates.
  void drop_held_for(NodeId j) {
    if (held_.empty()) return;
    std::vector<Held<PendingFrame>> keep;
    keep.reserve(held_.size());
    while (!held_.empty()) {
      auto h = std::move(const_cast<Held<PendingFrame>&>(held_.top()));
      held_.pop();
      if (h.to != j) keep.push_back(std::move(h));
    }
    for (auto& h : keep) held_.push(std::move(h));
  }

  /// Queue the log suffix beyond the peer's cumulative receive count.
  /// Counted as catch-up traffic, never as new sends — honest-byte parity
  /// across substrates is preserved by construction.
  void replay_to(Peer& p, std::uint64_t peer_recv) {
    while (!p.log.empty() && p.log_start < peer_recv) {
      // The hello's receive count acknowledges this prefix: prune it.
      p.log_bytes -= frame_wire_size(*p.log.front().body, auth_);
      p.log.pop_front();
      ++p.log_start;
    }
    for (const PendingFrame& pf : p.log) {
      ++metrics_.catchup_frames;
      metrics_.catchup_bytes += frame_wire_size(*pf.body, auth_);
      append_frame(p, pf);
    }
  }

  /// Dark window begins: close every socket (peers observe EOF / refused
  /// connections) and drop held frames — they are all in the replay logs.
  void close_io() override {
    for (NodeId j = 0; j < opts_.n; ++j) {
      if (j == self_) continue;
      drop_link(j);
      abort_dial(peers_[j]);
      peers_[j].redial_at = -1;
    }
    for (auto& pa : accepts_) ::close(pa.fd);
    accepts_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    held_ = {};
  }

  /// Restart: rebind the listen port and re-dial every lower id (higher ids
  /// re-dial us once they see the port is back).
  void reopen_io() override {
    std::uint16_t port = ports_[self_];
    listen_fd_ = make_listen_socket(port);
    set_nonblocking(listen_fd_);
    for (NodeId j = 0; j < self_; ++j) {
      peers_[j].redial_attempts = 0;
      peers_[j].redial_at = now();  // dial now, back off on failure
    }
  }

  void serve(const std::atomic<bool>& stop) override {
    if (!setup_mesh(stop)) {
      // Stopped mid-bring-up (a peer died, or wait() gave up): not a
      // failure, and a placeholder terminated from construction (a crashed
      // node) still counts as done.
      note_termination();
      return;
    }
    start_protocol();
    event_loop(stop);
  }

  /// Establish the full mesh: dial every lower id and accept every higher
  /// id, binding fds to node ids with a hello. Dials take the supervisor's
  /// non-blocking path, so a failed attempt (a peer churning dark
  /// mid-handshake, say) is re-dialed with backoff. Returns false if the
  /// cluster stopped first (a peer died, or wait() gave up).
  bool setup_mesh(const std::atomic<bool>& stop) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(opts_.timeout_ms);
    set_nonblocking(listen_fd_);
    for (NodeId j = 0; j < self_; ++j) start_dial(j, peers_[j]);
    std::size_t missing = opts_.n - 1;
    while (missing > 0 && !stop.load(std::memory_order_relaxed)) {
      if (Clock::now() >= deadline) throw Error("tcp: mesh setup timeout");
      supervisor_tick();
      pollfds_.clear();
      owners_.clear();
      pollfds_.push_back({wake_.fd(), POLLIN, 0});
      pollfds_.push_back({listen_fd_, POLLIN, 0});
      for (const auto& pa : accepts_) pollfds_.push_back({pa.fd, POLLIN, 0});
      for (NodeId j = 0; j < self_; ++j) {
        const Peer& p = peers_[j];
        if (p.dial_fd < 0) continue;
        pollfds_.push_back(
            {p.dial_fd, p.dial_hello_sent ? short(POLLIN) : short(POLLOUT), 0});
        owners_.push_back({FdKind::kDial, j});
      }
      ::poll(pollfds_.data(), pollfds_.size(), 10);
      if (pollfds_[0].revents != 0) wake_.drain();  // stop re-checked above
      const std::size_t first_dial = pollfds_.size() - owners_.size();
      for (std::size_t i = 0; i < owners_.size(); ++i) {
        if (pollfds_[first_dial + i].revents == 0) continue;
        const NodeId j = owners_[i].idx;
        missing -= progress_dial(j, peers_[j], /*bringup=*/true) ? 1 : 0;
      }
      accept_pending();
      missing -= progress_accepts(/*bringup=*/true);
    }
    for (const auto& pa : accepts_) ::close(pa.fd);
    accepts_.clear();
    for (Peer& p : peers_) abort_dial(p);
    return missing == 0;
  }

  /// Event-driven main loop: send what the last pass's deliveries
  /// broadcast, write everything writable, then block in poll(2) — without
  /// a timeout — until socket activity or a wakeup signal. No sleep ticks
  /// anywhere.
  void event_loop(const std::atomic<bool>& stop) {
    while (!stop.load(std::memory_order_relaxed)) {
      end_pass();
      if (churn_dark()) continue;
      if (recovery_) supervisor_tick();
      if (!held_.empty()) release_held(now());
      flush_pending();

      pollfds_.clear();
      owners_.clear();
      pollfds_.push_back({wake_.fd(), POLLIN, 0});
      owners_.push_back({FdKind::kPeer, self_});  // placeholder, aligned
      for (NodeId j = 0; j < opts_.n; ++j) {
        Peer& p = peers_[j];
        if (p.fd >= 0) {
          short events = POLLIN;
          if (p.blocked && p.pending()) events |= POLLOUT;
          pollfds_.push_back({p.fd, events, 0});
          owners_.push_back({FdKind::kPeer, j});
        }
        if (p.dial_fd >= 0) {
          // Writable = connect finished; readable = reply-hello bytes.
          pollfds_.push_back({p.dial_fd,
                              p.dial_hello_sent ? short(POLLIN)
                                                : short(POLLOUT),
                              0});
          owners_.push_back({FdKind::kDial, j});
        }
      }
      if (recovery_ && listen_fd_ >= 0) {
        pollfds_.push_back({listen_fd_, POLLIN, 0});
        owners_.push_back({FdKind::kListen, 0});
      }
      for (std::size_t a = 0; a < accepts_.size(); ++a) {
        pollfds_.push_back({accepts_[a].fd, POLLIN, 0});
        owners_.push_back({FdKind::kAccept, static_cast<NodeId>(a)});
      }

      if (::poll(pollfds_.data(), pollfds_.size(), poll_timeout()) < 0) {
        if (errno == EINTR) continue;
        sys_fail("poll");
      }
      if (pollfds_[0].revents != 0) wake_.drain();  // stop re-checked above

      for (std::size_t i = 1; i < pollfds_.size(); ++i) {
        const PollOwner owner = owners_[i];
        switch (owner.kind) {
          case FdKind::kPeer: {
            Peer& p = peers_[owner.idx];
            if (p.fd < 0) break;
            if (pollfds_[i].revents & (POLLIN | POLLERR | POLLHUP)) {
              read_peer(owner.idx, p);
            }
            if (p.fd >= 0 && (pollfds_[i].revents & POLLOUT)) {
              p.blocked = false;
              flush_peer(owner.idx, p);
            }
            drain_local();
            break;
          }
          case FdKind::kDial:
            if (pollfds_[i].revents != 0) {
              progress_dial(owner.idx, peers_[owner.idx], /*bringup=*/false);
            }
            break;
          case FdKind::kListen:
            if (pollfds_[i].revents & POLLIN) accept_pending();
            break;
          case FdKind::kAccept:
            // Handled wholesale below: progress_accepts() compacts the
            // vector, which would invalidate the owner indices here.
            break;
        }
      }
      if (recovery_ && !accepts_.empty()) progress_accepts(false);
    }
  }

  /// Next forced poll wakeup: netem releases, our own churn transitions,
  /// due re-dials, dial/accept handshake deadlines. -1 (block forever)
  /// when none apply — the common, churn-free steady state.
  int poll_timeout() const {
    SimTime at = -1;
    const auto consider = [&at](SimTime t) {
      if (t >= 0 && (at < 0 || t < at)) at = t;
    };
    if (!held_.empty()) consider(held_.top().release);
    consider(next_down_at());
    if (recovery_) {
      for (const Peer& p : peers_) {
        consider(p.redial_at);
        if (p.dial_fd >= 0) consider(p.dial_deadline);
      }
      for (const auto& pa : accepts_) consider(pa.deadline);
    }
    return poll_ms_until(at);
  }

  /// Opportunistic write pass over every peer with buffered bytes (peers
  /// that already hit EAGAIN wait for POLLOUT instead).
  void flush_pending() {
    for (NodeId j = 0; j < opts_.n; ++j) {
      Peer& p = peers_[j];
      if (p.fd >= 0 && !p.blocked && p.pending()) flush_peer(j, p);
    }
  }

  /// One read(2) per ready peer per pass, so a peer that streams faster
  /// than this node parses cannot hold back the node's own sends: they
  /// leave at the top of the next pass. What a full read leaves in the
  /// socket waits for that pass's poll, which is level-triggered.
  void read_peer(NodeId from, Peer& p) {
    const ssize_t k = ::read(p.fd, rbuf_.data(), rbuf_.size());
    if (k > 0) {
      p.parser.feed({rbuf_.data(), static_cast<std::size_t>(k)});
      pump_frames(from, p);
      return;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    // EOF or hard error: peer done sending; drop the link.
    close_link(from, p);
  }

  void pump_frames(NodeId from, Peer& p) {
    while (true) {
      std::optional<FrameView> f;
      try {
        // Zero-copy: the view borrows the parser's buffer; the decoder
        // reads straight out of it, no per-frame payload vector.
        f = p.parser.next_view();
      } catch (const Error&) {
        // Framing/MAC broken: the byte stream is unrecoverable.
        ++metrics_.malformed_dropped;
        close_link(from, p);
        return;
      }
      if (!f) return;
      // A fully parsed frame advances the cumulative ack our recovery
      // hellos carry, decodable payload or not (the sender counts frames
      // written the same way).
      if (recovery_) ++p.recv_count;
      deliver(from, f->channel, f->payload);
    }
  }

  /// Write the link's buffered bytes until they are all out or the socket
  /// is full.
  void flush_peer(NodeId j, Peer& p) {
    while (p.pending()) {
      const ssize_t k = send_some(p.fd, p.out.data() + p.out_pos,
                                  p.out.size() - p.out_pos);
      if (k > 0) {
        p.out_pos += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        p.blocked = true;
        return;
      }
      close_link(j, p);
      return;
    }
  }

  /// Close p's link (if open) and reset its stream state for the next
  /// incarnation.
  void drop_link(NodeId j) {
    Peer& p = peers_[j];
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
    p.out.clear();
    p.out_pos = 0;
    p.blocked = false;
    p.parser = FrameParser(mac(j));
  }

  /// A live link died (EOF, hard error, broken stream). In recovery mode the
  /// supervisor takes over: when we are the link's initiator, a
  /// backoff-paced re-dial.
  void close_link(NodeId j, Peer& p) {
    drop_link(j);
    if (recovery_) schedule_redial(j, p, /*reset_backoff=*/true);
  }

  /// What a pollfds_ entry (beyond the wakeup fd) refers to.
  enum class FdKind : std::uint8_t { kPeer, kDial, kListen, kAccept };
  struct PollOwner {
    FdKind kind;
    NodeId idx;  ///< peer id (kPeer/kDial) or accepts_ index (kAccept)
  };

  /// A copy: the derived cluster's options die before the base joins us.
  const Options opts_;
  const crypto::KeyStore& keys_;
  const std::vector<std::uint16_t>& ports_;
  int listen_fd_;
  Rng jitter_rng_;
  bool recovery_ = false;
  std::vector<Peer> peers_;
  HoldbackQueue<PendingFrame> held_;
  /// Pooled scratch reused across the node's lifetime (no per-iteration or
  /// per-read allocations in the steady state).
  std::vector<std::uint8_t> rbuf_;
  std::vector<pollfd> pollfds_;
  std::vector<PollOwner> owners_;
  std::vector<PendingAccept> accepts_;
};

// ------------------------------------------------------------------ Cluster

TcpCluster::TcpCluster(Options opts)
    : SocketCluster(opts, "TcpCluster"), opts_(std::move(opts)) {
  if (!opts_.churn.empty()) opts_.recovery = true;
}

int TcpCluster::open_socket(std::uint16_t& port) {
  return make_listen_socket(port);
}

std::unique_ptr<SocketNode> TcpCluster::make_node(NodeId id, int fd) {
  return std::make_unique<Node>(*this, id, fd);
}

}  // namespace delphi::transport
