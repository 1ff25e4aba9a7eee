#pragma once
/// \file udp.hpp
/// UDP datagram deployment of the protocol state machines — the lossy-network
/// counterpart of transport/tcp.hpp, sharing its framed wire format,
/// pairwise-HMAC authentication, and one-thread-per-node poll(2) event loops.
/// The node lifecycle itself (protocol hosting, termination, churn
/// snapshot/restore, start/wait/stop) is the shared transport/socket_node.hpp
/// core; this module keeps the datagram codec, the ARQ, SeqFilter and the
/// wire queue.
///
/// Design (one datagram per link per loop step):
///   * Each node owns ONE UDP socket bound to 127.0.0.1:<os-assigned>; all
///     sockets are bound before any thread starts, so there is no mesh
///     bring-up phase — the source port identifies the sending node.
///   * Frames wait in a per-link queue. Each event-loop step packs every
///     frame queued for a peer, in send order, into one data datagram:
///     kind | u32 seq | ack section | frames | 32-byte HMAC tag. An inner
///     frame is uvarint length | uvarint channel | payload, with no tag of
///     its own; one tag per datagram covers every preceding byte, so a
///     replayed, renumbered, or tampered datagram fails authentication. A
///     step splits the queue across datagrams only at kMaxDatagramBytes or
///     at the window.
///   * Acks ride the data: every data datagram carries the cumulative floor
///     and the freshly accepted seqs (SACKs) of the reverse link. A
///     standalone ack datagram (kind | ack section | tag) goes out only in
///     a step that sends the peer no data.
///   * The datagram is the ARQ unit: seqs are dense per directed link, the
///     receiver's SeqFilter accepts each seq once (duplicates are re-acked
///     and dropped) and delivers its frames in order, all or nothing. The
///     sender keeps each unacked datagram's bytes in a ring indexed by seq
///     and resends them verbatim on an exponentially backed-off RTO.
///     Delivery across datagrams is NOT FIFO — exactly the asynchronous
///     network contract the protocols are built for (and the simulator's
///     default).
///   * Window: a link's unacked datagrams may charge at most
///     SO_RCVBUF / (2(n-1)) of the receiver's buffer (read back with
///     getsockopt; every node's socket is made alike), each charged at
///     twice its length plus 1 KiB — the kernel's worst case. The n-1
///     senders together thus fill at most half a receiver's buffer with
///     data, leaving the rest for acks, so a stalled receiver drops
///     nothing. One datagram may always be in flight; frames beyond the
///     window wait in the queue and are packed together when acks open it.
///   * A loop step reads the socket until EAGAIN and delivers all of it
///     before its sends (TCP, by contrast, reads one buffer per peer per
///     pass). The window already bounds that: the fresh data a step can
///     find is about SO_RCVBUF / 4 bytes (half the buffer's charge, at
///     about twice a datagram's length), so a streaming peer cannot hold
///     back the node's own sends for long.
///   * Accounting happens at the logical send, mirroring the simulator's
///     framed_size accounting: retransmissions, acks, and the datagram
///     headers are transport overhead and excluded — which is what makes
///     sim ≡ udp honest-byte parity hold by construction
///     (tests/udp_substrate_test.cpp pins it).
///   * Every outgoing datagram (data and acks alike) passes the link's
///     netem::LinkShim: `loss` drops a whole datagram, `rate-kbps` counts
///     datagram bytes, and delays are honoured by a holdback queue — so the
///     full `adversary=` plane plus loss and bandwidth caps run on genuine
///     kernel sockets.
///
/// The datagram codec below is exposed for tests (fuzz_decode_test feeds it
/// truncated/corrupt datagrams) and the bench; UdpMesh is the cluster.

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "transport/socket_node.hpp"

namespace delphi::transport {

/// Kind bytes: first byte of every datagram.
inline constexpr std::uint8_t kDatagramData = 0xD7;
inline constexpr std::uint8_t kDatagramAck = 0xA4;

/// Hard ceiling on one datagram (loopback UDP tops out at ~65507 payload
/// bytes); enqueueing a frame that cannot fit is an Error at send time.
inline constexpr std::size_t kMaxDatagramBytes = 65'000;

/// Most selective-ack entries accepted in one datagram (decode rejects
/// higher claims before allocating).
inline constexpr std::size_t kMaxAckSacks = 1024;

/// One decoded datagram; the frame payloads borrow the input buffer.
struct DatagramView {
  /// A standalone ack: no seq, no frames.
  bool is_ack = false;
  /// Data only: this datagram's link sequence number.
  std::uint32_t seq = 0;
  /// The ack section: every seq below `cum` is acknowledged, and so is
  /// each seq in `sacks`.
  std::uint32_t cum = 0;
  std::vector<std::uint32_t> sacks;
  /// Data only: the packed frames, in send order (at least one).
  std::vector<FrameView> frames;
};

/// Encode one data datagram: kind | u32 seq | u32 cum | uvarint count |
/// u32 sacks | frames | tag. Each frame is a frame body (encode_frame_body)
/// written as uvarint length | channel | payload — its u32 prefix dropped.
/// The tag covers every preceding byte when `key` is non-null.
std::vector<std::uint8_t> encode_data_datagram(
    std::uint32_t seq, std::uint32_t cum, std::span<const std::uint32_t> sacks,
    std::span<const SharedFrameBody> frames, const crypto::HmacKey* key);

/// Encode one standalone ack datagram: kind | u32 cum | uvarint count |
/// u32 sacks | tag (tag over all preceding bytes when `key` is non-null).
std::vector<std::uint8_t> encode_ack_datagram(std::uint32_t cum,
                                              std::span<const std::uint32_t> sacks,
                                              const crypto::HmacKey* key);

/// Authenticate and decode one datagram into `out` (`key` = nullptr for
/// plaintext links; `out`'s vectors keep their capacity across calls).
/// Throws ProtocolViolation on MAC failure — checked before any field is
/// read — and SerializationError on structural corruption, including a
/// claimed frame length or sack count beyond the datagram. A datagram is
/// all-or-nothing, so unlike the TCP stream parser a failure poisons
/// nothing: the caller drops the datagram and delivers none of its frames.
void decode_datagram(std::span<const std::uint8_t> bytes,
                     const crypto::HmacKey* key, DatagramView& out);

/// Receive-side duplicate filter for one directed link: accepts each
/// sequence number exactly once, tracks the cumulative floor for acks.
class SeqFilter {
 public:
  /// True iff `seq` was never accepted before (marks it accepted).
  bool accept(std::uint32_t seq);

  /// Every seq strictly below this has been accepted.
  std::uint32_t cum() const noexcept { return cum_; }

  /// Accepted-but-ahead-of-the-floor backlog (diagnostics/tests).
  std::size_t pending() const noexcept { return ahead_.size(); }

 private:
  std::uint32_t cum_ = 0;
  std::set<std::uint32_t> ahead_;
};

/// A full-mesh UDP cluster of n nodes, one OS thread each, on 127.0.0.1 —
/// the same SocketCluster lifecycle and observers as TcpCluster.
/// metrics() counts logical sends only: retransmissions and acks are not
/// traffic. A node dark under `churn` closes its socket (datagrams to it
/// vanish) and rebinds the SAME port at up_us — the port is the node's
/// identity, so peers' ARQ retransmissions find it again with no handshake.
class UdpMesh final : public SocketCluster {
 public:
  struct Options : SocketOptions {
    /// Retransmission timeout for unacked datagrams (loopback RTT is tens of
    /// µs; this only bounds recovery latency after a drop). Retransmission
    /// attempts back off exponentially from this base (doubling per
    /// attempt, capped at 32x), so a long-dark peer costs O(log) resend
    /// work instead of a fixed-rate spray.
    std::int64_t rto_ms = 25;
    /// Per-directed-link cap on frames not yet acknowledged: queued behind
    /// the window or carried by an unacked datagram. A send that would
    /// exceed it throws a typed ResourceExhausted — never a silent drop.
    /// The default is roomy enough that honest runs (including churn
    /// restarts) stay far below it; tiny values let tests exercise the
    /// exhaustion path.
    std::size_t max_unacked = 65'536;
  };

  explicit UdpMesh(Options opts);

  const Options& options() const noexcept { return opts_; }

 private:
  class Node;

  int open_socket(std::uint16_t& port) override;
  std::unique_ptr<SocketNode> make_node(NodeId id, int fd) override;

  Options opts_;
};

}  // namespace delphi::transport
