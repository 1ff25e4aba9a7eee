#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace delphi::transport {

namespace {

/// Selective-ack entries advertised per datagram (the cumulative floor
/// carries the rest; a bounded list keeps the ack section small).
constexpr std::size_t kAckSackLimit = 256;

/// Largest data datagram header: kind, seq, the ack floor, a sack count
/// and kAckSackLimit sacks. A frame that fits behind it always fits a
/// datagram of its own.
constexpr std::size_t kDataHeaderMax = 1 + 4 + 4 + 2 + 4 * kAckSackLimit;

/// Datagram socket on 127.0.0.1:`port` (0 = OS-assigned, written back);
/// non-blocking, with roomy buffers (a whole burst window may release at
/// one instant). A restarted node passes its original port — the port is its
/// published identity (port_to_peer_ on every peer), so a rejoin must
/// reclaim it exactly.
int make_udp_socket(std::uint16_t& port) {
  const int fd = sock::bind_loopback(SOCK_DGRAM, port);
  const int bufsz = 1 << 20;  // a host may grant less: see recv_buffer_bytes
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
  sock::set_nonblocking(fd);
  return fd;
}

/// The receive buffer the kernel granted `fd`: the bytes of datagram
/// memory (skb truesize, not payload) it queues before dropping.
std::size_t recv_buffer_bytes(int fd) {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, &len) < 0) {
    sock::sys_fail("getsockopt(SO_RCVBUF)");
  }
  return static_cast<std::size_t>(std::max(bytes, 0));
}

/// What a datagram of `len` bytes may cost a receive buffer: the kernel
/// rounds its allocation up, so a large datagram can charge about twice
/// its length, and a small one the fixed skb overhead.
std::size_t kernel_charge(std::size_t len) { return 2 * len + 1024; }

/// Bytes of a data datagram besides its frames: the header with `sacks`
/// selective acks, and the tag on authenticated links.
std::size_t data_overhead(std::size_t sacks, bool auth) {
  return 1 + 4 + 4 + uvarint_size(sacks) + 4 * sacks +
         (auth ? crypto::kMacTagSize : 0);
}

/// Bytes a frame body takes inside a data datagram: uvarint length, then
/// the body after its u32 prefix (channel and payload).
std::size_t packed_size(const std::vector<std::uint8_t>& body) {
  const std::size_t inner = body.size() - 4;
  return uvarint_size(inner) + inner;
}

void write_ack(ByteWriter& w, std::uint32_t cum,
               std::span<const std::uint32_t> sacks) {
  w.u32(cum);
  w.uvarint(sacks.size());
  for (const auto s : sacks) w.u32(s);
}

void read_ack(ByteReader& r, DatagramView& d) {
  d.cum = r.u32();
  const std::uint64_t count = r.uvarint();
  if (count > kMaxAckSacks) {
    throw SerializationError("udp: ack sack count too large");
  }
  if (count * 4 > r.remaining()) {
    throw SerializationError("udp: sack list beyond the datagram");
  }
  for (std::uint64_t i = 0; i < count; ++i) d.sacks.push_back(r.u32());
}

}  // namespace

// ------------------------------------------------------------------- codec

std::vector<std::uint8_t> encode_data_datagram(
    std::uint32_t seq, std::uint32_t cum, std::span<const std::uint32_t> sacks,
    std::span<const SharedFrameBody> frames, const crypto::HmacKey* key) {
  std::size_t size = data_overhead(sacks.size(), key != nullptr);
  for (const auto& f : frames) size += packed_size(*f);
  ByteWriter w(size);
  w.u8(kDatagramData);
  w.u32(seq);
  write_ack(w, cum, sacks);
  for (const auto& f : frames) {
    const auto inner = std::span<const std::uint8_t>(*f).subspan(4);
    w.uvarint(inner.size());
    w.raw(inner);
  }
  if (key != nullptr) w.raw(key->tag(w.data()));
  return w.take();
}

std::vector<std::uint8_t> encode_ack_datagram(
    std::uint32_t cum, std::span<const std::uint32_t> sacks,
    const crypto::HmacKey* key) {
  ByteWriter w(1 + 4 + 2 + 4 * sacks.size() +
               (key != nullptr ? crypto::kMacTagSize : 0));
  w.u8(kDatagramAck);
  write_ack(w, cum, sacks);
  if (key != nullptr) w.raw(key->tag(w.data()));
  return w.take();
}

void decode_datagram(std::span<const std::uint8_t> bytes,
                     const crypto::HmacKey* key, DatagramView& d) {
  d.is_ack = false;
  d.seq = 0;
  d.cum = 0;
  d.sacks.clear();
  d.frames.clear();
  const std::size_t tag_len = key != nullptr ? crypto::kMacTagSize : 0;
  if (bytes.size() < 1 + tag_len) {
    throw SerializationError("udp: truncated datagram");
  }
  const auto content = bytes.first(bytes.size() - tag_len);
  if (key != nullptr) {
    crypto::Digest got{};
    std::copy(bytes.end() - static_cast<std::ptrdiff_t>(tag_len), bytes.end(),
              got.begin());
    if (!crypto::digest_equal(key->tag(content), got)) {
      throw ProtocolViolation("udp: datagram authentication failed");
    }
  }

  ByteReader r(content);
  const std::uint8_t kind = r.u8();
  if (kind == kDatagramAck) {
    d.is_ack = true;
    read_ack(r, d);
    if (!r.exhausted()) throw SerializationError("udp: ack length mismatch");
    return;
  }
  if (kind != kDatagramData) {
    throw SerializationError("udp: unknown datagram kind");
  }
  d.seq = r.u32();
  read_ack(r, d);
  if (r.exhausted()) throw SerializationError("udp: datagram without frames");
  while (!r.exhausted()) {
    const std::uint64_t len = r.uvarint();
    if (len > r.remaining()) {
      throw SerializationError("udp: frame length beyond the datagram");
    }
    ByteReader f(r.raw(static_cast<std::size_t>(len)));
    const std::uint64_t channel = f.uvarint();  // an empty frame throws here
    if (channel > std::numeric_limits<std::uint32_t>::max()) {
      throw SerializationError("udp: channel id overflows u32");
    }
    d.frames.push_back(
        FrameView{static_cast<std::uint32_t>(channel), f.raw(f.remaining())});
  }
}

bool SeqFilter::accept(std::uint32_t seq) {
  if (seq == cum_ && ahead_.empty()) {  // in order: the common case
    ++cum_;
    return true;
  }
  if (seq < cum_ || ahead_.contains(seq)) return false;
  ahead_.insert(seq);
  while (!ahead_.empty() && *ahead_.begin() == cum_) {
    ahead_.erase(ahead_.begin());
    ++cum_;
  }
  return true;
}

// --------------------------------------------------------------------- Node

class UdpMesh::Node final : public SocketNode {
 public:
  Node(UdpMesh& cluster, NodeId self, int sock_fd)
      : SocketNode(cluster, self, cluster.opts_),
        sock_fd_(sock_fd),
        own_port_(cluster.ports()[self]),
        rto_us_(std::max<std::int64_t>(cluster.opts_.rto_ms, 1) * 1000),
        max_unacked_(cluster.opts_.max_unacked),
        // Every node's socket comes from make_udp_socket on this host, so
        // our own grant stands for each peer's.
        window_(recv_buffer_bytes(sock_fd) /
                (2 * std::max<std::size_t>(n_ - 1, 1))) {
    peers_.resize(n_);
    for (NodeId j = 0; j < n_; ++j) {
      if (j == self_) continue;
      peers_[j].addr = sock::loopback_addr(cluster.ports()[j]);
      port_to_peer_.emplace(cluster.ports()[j], j);
    }
    rbuf_.resize(64 * 1024);
  }

  ~Node() override {
    if (sock_fd_ >= 0) ::close(sock_fd_);
  }

 private:
  /// Encoded datagram bytes, shared by the resend ring and the wire queue.
  using Datagram = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// One sent data datagram: its bytes (resent verbatim; null once acked),
  /// what it carries, and its retransmission timer.
  struct Sent {
    Datagram bytes;
    std::uint32_t frames = 0;
    /// Framed bytes of its frames: the catch-up cost of a resend.
    std::size_t frame_bytes = 0;
    /// Its kernel_charge against the window.
    std::size_t charge = 0;
    /// Time of the next wire attempt.
    SimTime at = 0;
    /// Wire attempts so far. Drives the exponential RTO backoff and
    /// classifies re-sends as catch-up traffic.
    std::uint32_t attempts = 0;
  };

  struct Peer {
    sockaddr_in addr{};
    // Send side.
    /// Frames not yet in a datagram, from queue_head on.
    std::vector<SharedFrameBody> queue;
    std::size_t queue_head = 0;
    /// Frames queued or carried by an unacked datagram (max_unacked).
    std::size_t pending_frames = 0;
    /// Datagrams by seq: ring[i] has seq base + i. Acked entries past the
    /// front wait (bytes released) until the front is acked too.
    std::deque<Sent> ring;
    std::uint32_t base = 0;
    /// Kernel charge of the unacked datagrams in the ring.
    std::size_t inflight = 0;
    /// Earliest retransmission time in the ring (-1: none). Acks leave it
    /// early at worst, which costs one scan.
    SimTime next_resend = -1;
    // Receive side.
    SeqFilter filter;
    bool ack_due = false;
    std::vector<std::uint32_t> fresh_sacks;
  };

  void enqueue_frame(NodeId to, const SharedFrameBody& body) override {
    Peer& p = peers_[to];
    const std::size_t dgram = kDataHeaderMax + packed_size(*body) +
                              (auth_ ? crypto::kMacTagSize : 0);
    if (dgram > kMaxDatagramBytes) {
      throw Error("udp: frame of " + std::to_string(dgram) +
                  " bytes exceeds the one-datagram limit");
    }
    if (p.pending_frames >= max_unacked_) {
      // Typed, loud, and attributable — never a silent drop. The node dies
      // with this message in NodeFailure / RunReport.node_errors.
      throw ResourceExhausted(
          "udp: unacked map for peer " + std::to_string(to) + " hit the cap (" +
          std::to_string(max_unacked_) + " frames in flight)");
    }
    ++p.pending_frames;
    p.queue.push_back(body);
  }

  /// One loop step's sends to every peer: due retransmissions, then the
  /// queued frames the window admits, packed into as few datagrams as
  /// kMaxDatagramBytes allows and carrying the ack owed to the peer. A
  /// standalone ack goes out only when no data datagram did.
  void send_step(SimTime now) {
    for (NodeId j = 0; j < n_; ++j) {
      if (j == self_) continue;
      Peer& p = peers_[j];
      resend_due(j, p, now);
      bool sent = false;
      while (p.queue_head < p.queue.size() && send_data(j, p, now)) {
        sent = true;
      }
      if (p.queue_head == p.queue.size()) {
        p.queue.clear();
        p.queue_head = 0;
      }
      if (p.ack_due && !sent) send_ack(j, p, now);
    }
  }

  /// The fresh sacks owed to p (at/above its floor, at most kAckSackLimit),
  /// into sack_scratch_.
  void collect_sacks(Peer& p) {
    const std::uint32_t cum = p.filter.cum();
    sack_scratch_.clear();
    for (const auto s : p.fresh_sacks) {
      if (s >= cum && sack_scratch_.size() < kAckSackLimit) {
        sack_scratch_.push_back(s);
      }
    }
  }

  /// Pack the longest run of queued frames that fits one datagram and the
  /// window, and send it with p's ack. False when the window is closed.
  bool send_data(NodeId j, Peer& p, SimTime now) {
    collect_sacks(p);
    std::size_t len = data_overhead(sack_scratch_.size(), auth_);
    std::size_t limit = kMaxDatagramBytes;
    if (p.inflight > 0) {
      // kernel_charge(len) must fit the room left; with nothing in flight
      // one datagram may always go.
      const std::size_t room = window_ > p.inflight ? window_ - p.inflight : 0;
      limit = std::min(limit, room > 1024 ? (room - 1024) / 2 : 0);
    }
    std::size_t end = p.queue_head;
    std::size_t frame_bytes = 0;
    while (end < p.queue.size() && len + packed_size(*p.queue[end]) <= limit) {
      len += packed_size(*p.queue[end]);
      frame_bytes += frame_wire_size(*p.queue[end], auth_);
      ++end;
    }
    if (end == p.queue_head) return false;

    const auto seq = p.base + static_cast<std::uint32_t>(p.ring.size());
    Sent s;
    s.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        encode_data_datagram(
            seq, p.filter.cum(), sack_scratch_,
            std::span<const SharedFrameBody>(p.queue).subspan(
                p.queue_head, end - p.queue_head),
            mac(j)));
    s.frames = static_cast<std::uint32_t>(end - p.queue_head);
    s.frame_bytes = frame_bytes;
    s.charge = kernel_charge(s.bytes->size());
    for (; p.queue_head < end; ++p.queue_head) p.queue[p.queue_head].reset();
    p.inflight += s.charge;
    p.ack_due = false;
    p.fresh_sacks.clear();
    p.ring.push_back(std::move(s));
    attempt(j, p, p.ring.back(), now);
    return true;
  }

  /// The ack owed to p in a step that sends it no data.
  void send_ack(NodeId j, Peer& p, SimTime now) {
    collect_sacks(p);
    auto bytes = encode_ack_datagram(p.filter.cum(), sack_scratch_, mac(j));
    p.ack_due = false;
    p.fresh_sacks.clear();
    const auto v = links_[j].shim.on_send(now, bytes.size());
    if (v.drop) return;
    wire(j, std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes)),
         std::max(now, v.release_us), v.order);
  }

  /// Resend every datagram whose timer expired, and re-derive the link's
  /// earliest timer. The scan runs only once that timer has passed.
  void resend_due(NodeId j, Peer& p, SimTime now) {
    if (p.next_resend < 0 || p.next_resend > now) return;
    p.next_resend = -1;
    for (Sent& s : p.ring) {
      if (s.bytes == nullptr) continue;  // acked
      if (s.at <= now) {
        attempt(j, p, s, now);
      } else if (p.next_resend < 0 || s.at < p.next_resend) {
        p.next_resend = s.at;
      }
    }
  }

  /// One wire attempt of a data datagram: consult the link shim, and re-arm
  /// the retransmission timer.
  void attempt(NodeId j, Peer& p, Sent& s, SimTime now) {
    const auto v = links_[j].shim.on_send(now, s.bytes->size());
    const SimTime xmit = std::max(now, v.release_us);
    if (!v.drop) {
      wire(j, s.bytes, xmit, v.order);
      if (s.attempts > 0) {
        // A re-send is the ARQ catching a peer up (drop, dark window, or
        // lost ack) — recovery overhead, never honest traffic.
        metrics_.catchup_frames += s.frames;
        metrics_.catchup_bytes += s.frame_bytes;
      }
    }
    // Retransmit after the (possibly shim-delayed) wire time plus an
    // exponentially backed-off RTO (doubling per attempt, capped at 32x) —
    // a long-dark peer is probed ever more gently; a shim-dropped attempt
    // simply retries on the same schedule.
    const std::uint32_t shift = std::min<std::uint32_t>(s.attempts, 5);
    ++s.attempts;
    s.at = xmit + (rto_us_ << shift);
    if (p.next_resend < 0 || s.at < p.next_resend) p.next_resend = s.at;
  }

  /// Put a datagram on the wire at `at`: now on unshimmed links, else via
  /// the holdback queue (which realizes the shim's delays and ordering).
  void wire(NodeId j, Datagram d, SimTime at, std::uint64_t order) {
    if (links_[j].shim.active()) {
      wireq_.push({at, order, j, std::move(d)});
    } else {
      send_now(j, *d);
    }
  }

  /// Send failures (full buffers) are indistinguishable from network loss:
  /// the ARQ — or, for acks, the peer's duplicate-triggered re-ack —
  /// recovers.
  void send_now(NodeId j, const std::vector<std::uint8_t>& d) {
    ::sendto(sock_fd_, d.data(), d.size(), 0,
             reinterpret_cast<const sockaddr*>(&peers_[j].addr),
             sizeof(sockaddr_in));
  }

  /// Send every held datagram whose release time has arrived.
  void flush_wire(SimTime now) {
    while (!wireq_.empty() && wireq_.top().release <= now) {
      send_now(wireq_.top().to, *wireq_.top().item);
      wireq_.pop();
    }
  }

  void drain_socket() {
    while (true) {
      sockaddr_in src{};
      socklen_t slen = sizeof(src);
      const ssize_t k =
          ::recvfrom(sock_fd_, rbuf_.data(), rbuf_.size(), 0,
                     reinterpret_cast<sockaddr*>(&src), &slen);
      if (k < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: drained (other errnos: nothing to read either)
      }
      const auto it = port_to_peer_.find(ntohs(src.sin_port));
      if (it == port_to_peer_.end()) continue;  // stranger datagram
      handle_datagram(it->second,
                      {rbuf_.data(), static_cast<std::size_t>(k)});
    }
  }

  void handle_datagram(NodeId from, std::span<const std::uint8_t> bytes) {
    Peer& p = peers_[from];
    try {
      decode_datagram(bytes, mac(from), dv_);
    } catch (const Error&) {
      // Truncated, tampered, or forged: a datagram is self-contained, so
      // dropping it poisons nothing (unlike a broken TCP stream).
      ++metrics_.malformed_dropped;
      return;
    }
    on_ack(p, dv_);
    if (dv_.is_ack) return;
    p.ack_due = true;
    if (!p.filter.accept(dv_.seq)) return;  // duplicate: re-ack, don't deliver
    p.fresh_sacks.push_back(dv_.seq);
    // An undecodable payload keeps its seq accepted, so it is acked.
    for (const FrameView& f : dv_.frames) deliver(from, f.channel, f.payload);
  }

  /// Release every datagram the peer acknowledged (idempotent: a replayed
  /// or stale ack section only repeats what is already known).
  void on_ack(Peer& p, const DatagramView& d) {
    const std::uint32_t next = p.base + static_cast<std::uint32_t>(p.ring.size());
    const std::uint32_t cum = std::min(d.cum, next);
    for (; p.base < cum; ++p.base) {
      release(p, p.ring.front());
      p.ring.pop_front();
    }
    for (const auto s : d.sacks) {
      if (s >= p.base && s < next) release(p, p.ring[s - p.base]);
    }
    while (!p.ring.empty() && p.ring.front().bytes == nullptr) {
      p.ring.pop_front();
      ++p.base;
    }
    if (p.ring.empty()) p.next_resend = -1;
  }

  static void release(Peer& p, Sent& s) {
    if (s.bytes == nullptr) return;
    s.bytes.reset();
    p.inflight -= s.charge;
    p.pending_frames -= s.frames;
  }

  /// Earliest pending event across the wire queue and every peer's resend
  /// timer; -1 when fully idle (poll may block indefinitely).
  SimTime next_event() const {
    SimTime next = wireq_.empty() ? -1 : wireq_.top().release;
    for (const auto& p : peers_) {
      if (p.next_resend >= 0 && (next < 0 || p.next_resend < next)) {
        next = p.next_resend;
      }
    }
    return next;
  }

  void serve(const std::atomic<bool>& stop) override {
    // Every socket was bound before any thread started: no bring-up.
    start_protocol();
    while (!stop.load(std::memory_order_relaxed)) {
      end_pass();
      if (churn_dark()) continue;
      const SimTime t = now();
      send_step(t);
      flush_wire(t);

      SimTime next = next_event();
      const SimTime down_at = next_down_at();
      if (down_at >= 0 && (next < 0 || down_at < next)) next = down_at;
      pollfd fds[2] = {{wake_.fd(), POLLIN, 0}, {sock_fd_, POLLIN, 0}};
      if (::poll(fds, 2, poll_ms_until(next)) < 0) {
        if (errno == EINTR) continue;
        sock::sys_fail("poll(udp)");
      }
      if (fds[0].revents != 0) wake_.drain();  // stop re-checked above
      if (fds[1].revents & (POLLIN | POLLERR)) drain_socket();
    }
  }

  /// Dark: close the socket — datagrams to this node vanish (peers' ARQ
  /// keeps retransmitting) and nothing is sent. The ARQ/SeqFilter state
  /// lives in this object and survives.
  void close_io() override {
    if (sock_fd_ >= 0) {
      ::close(sock_fd_);
      sock_fd_ = -1;
    }
  }

  /// Rejoin on the SAME port (the node's identity on every peer's
  /// port_to_peer_ map) and let the ARQ catch everyone up — our due
  /// retransmissions flow out, peers' reach the fresh socket.
  void reopen_io() override {
    std::uint16_t port = own_port_;
    sock_fd_ = make_udp_socket(port);
    ++metrics_.reconnects;
  }

  int sock_fd_;
  std::uint16_t own_port_;
  SimTime rto_us_;
  std::size_t max_unacked_;
  /// Kernel charge each link's unacked datagrams may hold (see udp.hpp).
  std::size_t window_;
  std::vector<Peer> peers_;
  std::unordered_map<std::uint16_t, NodeId> port_to_peer_;
  /// Datagrams waiting for their netem release time (shimmed links only).
  HoldbackQueue<Datagram> wireq_;
  /// Pooled scratch (no steady-state allocations beyond datagram buffers).
  std::vector<std::uint8_t> rbuf_;
  std::vector<std::uint32_t> sack_scratch_;
  DatagramView dv_;
};

// --------------------------------------------------------------------- Mesh

UdpMesh::UdpMesh(Options opts)
    : SocketCluster(opts, "UdpMesh"), opts_(std::move(opts)) {
  if (opts_.max_unacked < 1) {
    throw ConfigError("UdpMesh: max_unacked must be >= 1");
  }
}

int UdpMesh::open_socket(std::uint16_t& port) { return make_udp_socket(port); }

std::unique_ptr<SocketNode> UdpMesh::make_node(NodeId id, int fd) {
  return std::make_unique<Node>(*this, id, fd);
}

}  // namespace delphi::transport
