#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace delphi::transport {

namespace {

/// Selective-ack entries advertised per ack datagram (the cumulative floor
/// carries the rest; a bounded list keeps acks one small datagram).
constexpr std::size_t kAckSackLimit = 256;

/// Datagram socket on 127.0.0.1:`port` (0 = OS-assigned, written back);
/// non-blocking, with roomy buffers (a whole burst window may release at
/// one instant). A restarted node passes its original port — the port is its
/// published identity (port_to_peer_ on every peer), so a rejoin must
/// reclaim it exactly.
int make_udp_socket(std::uint16_t& port) {
  const int fd = sock::bind_loopback(SOCK_DGRAM, port);
  const int bufsz = 1 << 20;  // best-effort: drops are recoverable anyway
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
  sock::set_nonblocking(fd);
  return fd;
}

}  // namespace

// ------------------------------------------------------------------- codec

crypto::Digest udp_frame_tag(const crypto::HmacKey& key, std::uint32_t seq,
                             const std::vector<std::uint8_t>& body) {
  const std::uint8_t seq_le[4] = {
      static_cast<std::uint8_t>(seq), static_cast<std::uint8_t>(seq >> 8),
      static_cast<std::uint8_t>(seq >> 16),
      static_cast<std::uint8_t>(seq >> 24)};
  // The MAC covers seq || channel || payload; the body's 4-byte length
  // prefix is framing, not content (same rule as the TCP frame tag).
  return key.tag({seq_le, 4},
                 std::span<const std::uint8_t>(body).subspan(4));
}

std::vector<std::uint8_t> encode_data_datagram(
    std::uint32_t seq, const std::vector<std::uint8_t>& body,
    const crypto::Digest* tag) {
  ByteWriter w(1 + 4 + body.size() + (tag != nullptr ? crypto::kMacTagSize : 0));
  w.u8(kDatagramData);
  w.u32(seq);
  w.raw(body);
  if (tag != nullptr) w.raw(*tag);
  return w.take();
}

std::vector<std::uint8_t> encode_ack_datagram(
    std::uint32_t cum, std::span<const std::uint32_t> sacks,
    const crypto::HmacKey* key) {
  ByteWriter w(1 + 4 + 2 + 4 * sacks.size() +
               (key != nullptr ? crypto::kMacTagSize : 0));
  w.u8(kDatagramAck);
  w.u32(cum);
  w.uvarint(sacks.size());
  for (const auto s : sacks) w.u32(s);
  if (key != nullptr) w.raw(key->tag(w.data()));
  return w.take();
}

DatagramView decode_datagram(std::span<const std::uint8_t> bytes,
                             const crypto::HmacKey* key) {
  ByteReader r0(bytes);
  const std::uint8_t kind = r0.u8();
  const std::size_t tag_len = key != nullptr ? crypto::kMacTagSize : 0;
  DatagramView d;

  if (kind == kDatagramData) {
    d.seq = r0.u32();
    const std::uint32_t len = r0.u32();
    if (len > kMaxFrameBytes) {
      throw SerializationError("udp: oversized frame length");
    }
    // Exactly one frame per datagram: the frame's post-prefix length must
    // account for every remaining byte.
    if (len != r0.remaining()) {
      throw SerializationError("udp: datagram/frame length mismatch");
    }
    if (r0.remaining() < tag_len + 1) {
      throw SerializationError("udp: truncated frame");
    }
    const std::size_t content_len = len - tag_len;
    if (key != nullptr) {
      crypto::Digest got{};
      std::memcpy(got.data(), bytes.data() + 9 + content_len, got.size());
      const auto want =
          key->tag(bytes.subspan(1, 4), bytes.subspan(9, content_len));
      if (!crypto::digest_equal(want, got)) {
        throw ProtocolViolation("udp: datagram authentication failed");
      }
    }
    ByteReader r(bytes.subspan(9, content_len));
    const std::uint64_t channel = r.uvarint();
    if (channel > std::numeric_limits<std::uint32_t>::max()) {
      throw SerializationError("udp: channel id overflows u32");
    }
    d.channel = static_cast<std::uint32_t>(channel);
    d.payload = bytes.subspan(9 + (content_len - r.remaining()), r.remaining());
    return d;
  }

  if (kind == kDatagramAck) {
    if (bytes.size() < 1 + 4 + 1 + tag_len) {
      throw SerializationError("udp: truncated ack");
    }
    d.is_ack = true;
    const std::size_t content_len = bytes.size() - tag_len;
    if (key != nullptr) {
      crypto::Digest got{};
      std::memcpy(got.data(), bytes.data() + content_len, got.size());
      const auto want = key->tag(bytes.subspan(0, content_len));
      if (!crypto::digest_equal(want, got)) {
        throw ProtocolViolation("udp: ack authentication failed");
      }
    }
    ByteReader r(bytes.subspan(1, content_len - 1));
    d.seq = r.u32();
    const std::uint64_t count = r.uvarint();
    if (count > kMaxAckSacks) {
      throw SerializationError("udp: ack sack count too large");
    }
    if (count * 4 != r.remaining()) {
      throw SerializationError("udp: ack length mismatch");
    }
    d.sacks.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) d.sacks.push_back(r.u32());
    return d;
  }

  throw SerializationError("udp: unknown datagram kind");
}

bool SeqFilter::accept(std::uint32_t seq) {
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
        max_unacked_(cluster.opts_.max_unacked) {
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
  /// One logically-sent, not-yet-acknowledged frame: the shared body, its
  /// seq-covering link tag, and the time of the next (re)transmission
  /// attempt.
  struct Unacked {
    SharedFrameBody body;
    crypto::Digest tag{};
    SimTime at = 0;
    /// Wire attempts so far: 0 = not yet sent. Drives the exponential RTO
    /// backoff and classifies re-sends as catch-up traffic.
    std::uint32_t attempts = 0;
  };

  struct Peer {
    sockaddr_in addr{};
    // Send side (selective-repeat ARQ).
    std::uint32_t next_seq = 0;
    std::map<std::uint32_t, Unacked> unacked;
    /// (at, seq) attempt schedule; entries are lazily invalidated when a
    /// frame is acked or rescheduled.
    std::priority_queue<std::pair<SimTime, std::uint32_t>,
                        std::vector<std::pair<SimTime, std::uint32_t>>,
                        std::greater<>>
        events;
    // Receive side.
    SeqFilter filter;
    bool ack_due = false;
    std::vector<std::uint32_t> fresh_sacks;
  };

  void enqueue_frame(NodeId to, const SharedFrameBody& body) override {
    Peer& p = peers_[to];
    const std::size_t dgram =
        1 + 4 + body->size() + (auth_ ? crypto::kMacTagSize : 0);
    if (dgram > kMaxDatagramBytes) {
      throw Error("udp: frame of " + std::to_string(dgram) +
                  " bytes exceeds the one-datagram limit");
    }
    if (p.unacked.size() >= max_unacked_) {
      // Typed, loud, and attributable — never a silent drop. The node dies
      // with this message in NodeFailure / RunReport.node_errors.
      throw ResourceExhausted(
          "udp: unacked map for peer " + std::to_string(to) + " hit the cap (" +
          std::to_string(max_unacked_) + " frames in flight)");
    }
    const std::uint32_t seq = p.next_seq++;
    const SimTime at = now();
    Unacked u;
    u.body = body;
    if (auth_) u.tag = udp_frame_tag(*mac(to), seq, *body);
    u.at = at;
    p.unacked.emplace(seq, std::move(u));
    p.events.emplace(at, seq);
  }

  /// Run every due (re)transmission attempt: consult the link shim, park the
  /// materialized datagram on the wire queue until its release time, and
  /// re-arm the frame's retransmission timer.
  void process_out(SimTime now) {
    for (NodeId j = 0; j < n_; ++j) {
      Peer& p = peers_[j];
      for (auto it = next_attempt(p);
           it != p.unacked.end() && it->second.at <= now;
           it = next_attempt(p)) {
        const std::uint32_t seq = it->first;
        p.events.pop();
        const auto v = links_[j].shim.on_send(
            now, frame_wire_size(*it->second.body, auth_));
        const SimTime xmit = std::max(now, v.release_us);
        if (!v.drop) {
          wireq_.push({xmit, v.order, j,
                       encode_data_datagram(
                           seq, *it->second.body,
                           auth_ ? &it->second.tag : nullptr)});
          if (it->second.attempts > 0) {
            // A re-send is the ARQ catching a peer up (drop, dark window,
            // or lost ack) — recovery overhead, never honest traffic.
            ++metrics_.catchup_frames;
            metrics_.catchup_bytes +=
                frame_wire_size(*it->second.body, auth_);
          }
        }
        // Retransmit after the (possibly shim-delayed) wire time plus an
        // exponentially backed-off RTO (doubling per attempt, capped at
        // 32x) — a long-dark peer is probed ever more gently; a
        // shim-dropped attempt simply retries on the same schedule.
        const std::uint32_t shift =
            std::min<std::uint32_t>(it->second.attempts, 5);
        ++it->second.attempts;
        it->second.at = xmit + (rto_us_ << shift);
        p.events.emplace(it->second.at, seq);
      }
    }
  }

  /// Send every datagram whose release time has arrived. Send failures
  /// (full buffers) are indistinguishable from network loss: the ARQ — or,
  /// for acks, the peer's duplicate-triggered re-ack — recovers.
  void flush_wire(SimTime now) {
    while (!wireq_.empty() && wireq_.top().release <= now) {
      const auto& w = wireq_.top();
      ::sendto(sock_fd_, w.item.data(), w.item.size(), 0,
               reinterpret_cast<const sockaddr*>(&peers_[w.to].addr),
               sizeof(sockaddr_in));
      wireq_.pop();
    }
  }

  /// Build one ack per peer that delivered data this round: cumulative
  /// floor + the freshly accepted seqs above it. Acks ride the shim too (a
  /// partition must block information in both layers).
  void flush_acks(SimTime now) {
    for (NodeId j = 0; j < n_; ++j) {
      Peer& p = peers_[j];
      if (!p.ack_due) continue;
      p.ack_due = false;
      const std::uint32_t cum = p.filter.cum();
      sack_scratch_.clear();
      for (const auto s : p.fresh_sacks) {
        if (s >= cum && sack_scratch_.size() < kAckSackLimit) {
          sack_scratch_.push_back(s);
        }
      }
      p.fresh_sacks.clear();
      auto bytes = encode_ack_datagram(
          cum, sack_scratch_, mac(j));
      const auto v = links_[j].shim.on_send(now, bytes.size());
      if (v.drop) continue;
      wireq_.push({std::max(now, v.release_us), v.order, j, std::move(bytes)});
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
    DatagramView d;
    try {
      d = decode_datagram(bytes, mac(from));
    } catch (const Error&) {
      // Truncated, tampered, or forged: a datagram is self-contained, so
      // dropping it poisons nothing (unlike a broken TCP stream).
      ++metrics_.malformed_dropped;
      return;
    }
    if (d.is_ack) {
      for (auto it = p.unacked.begin();
           it != p.unacked.end() && it->first < d.seq;) {
        it = p.unacked.erase(it);
      }
      for (const auto s : d.sacks) p.unacked.erase(s);
      return;
    }
    p.ack_due = true;
    if (!p.filter.accept(d.seq)) return;  // duplicate: re-ack, don't deliver
    p.fresh_sacks.push_back(d.seq);
    // An undecodable payload keeps its seq accepted, so it is acked.
    deliver(from, d.channel, d.payload);
  }

  /// The unacked frame behind p's earliest live attempt (p.unacked.end()
  /// if none), discarding schedule entries acked or rescheduled since.
  std::map<std::uint32_t, Unacked>::iterator next_attempt(Peer& p) {
    while (!p.events.empty()) {
      const auto [at, seq] = p.events.top();
      const auto it = p.unacked.find(seq);
      if (it != p.unacked.end() && it->second.at == at) return it;
      p.events.pop();
    }
    return p.unacked.end();
  }

  /// Earliest pending event across the wire queue and every peer's attempt
  /// schedule; -1 when fully idle (poll may block indefinitely).
  SimTime next_event() {
    SimTime next = wireq_.empty() ? -1 : wireq_.top().release;
    for (auto& p : peers_) {
      const auto it = next_attempt(p);
      if (it != p.unacked.end() && (next < 0 || it->second.at < next)) {
        next = it->second.at;
      }
    }
    return next;
  }

  void serve(const std::atomic<bool>& stop) override {
    // Every socket was bound before any thread started: no bring-up.
    start_protocol();
    while (!stop.load(std::memory_order_relaxed)) {
      if (churn_dark()) continue;
      const SimTime t = now();
      process_out(t);
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
      flush_acks(now());
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
  std::vector<Peer> peers_;
  std::unordered_map<std::uint16_t, NodeId> port_to_peer_;
  /// Materialized datagrams waiting for their netem release time (due
  /// immediately on unshimmed links).
  HoldbackQueue<std::vector<std::uint8_t>> wireq_;
  /// Pooled scratch (no steady-state allocations beyond datagram buffers).
  std::vector<std::uint8_t> rbuf_;
  std::vector<std::uint32_t> sack_scratch_;
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
