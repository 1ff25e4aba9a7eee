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
/// Design (one frame per datagram):
///   * Each node owns ONE UDP socket bound to 127.0.0.1:<os-assigned>; all
///     sockets are bound before any thread starts, so there is no mesh
///     bring-up phase — the source port identifies the sending node.
///   * A data datagram carries exactly one frame of the existing wire format
///     (u32 length | uvarint channel | payload | 32-byte HMAC tag), prefixed
///     by a kind byte and a per-directed-link u32 sequence number. The tag is
///     computed over seq || channel || payload (the HmacKey two-span MAC), so
///     a replayed, renumbered, or tampered datagram fails authentication —
///     slightly stronger than the TCP tag, which a stream cannot replay.
///   * Datagrams may be dropped, duplicated, or reordered (and the netem shim
///     does all three on purpose). A small selective-repeat ARQ layer makes
///     the transport reliable-enough for quorum protocols: the receiver's
///     SeqFilter accepts each seq once (duplicates are re-acked and dropped),
///     acks carry a cumulative floor plus recently-accepted seqs, and the
///     sender retransmits unacked frames on a fixed retransmission timeout.
///     Delivery is NOT FIFO — exactly the asynchronous-network contract the
///     protocols are built for (and the simulator's default).
///   * Accounting happens at the logical send, mirroring the simulator's
///     framed_size accounting: retransmissions, acks, and the seq/kind header
///     are transport overhead and excluded — which is what makes
///     sim ≡ udp honest-byte parity hold by construction
///     (tests/udp_substrate_test.cpp pins it).
///   * Every outgoing datagram (data and acks alike) passes the link's
///     netem::LinkShim; drops are recovered by the ARQ, delays are honoured
///     by a holdback queue — so the full `adversary=` plane plus loss and
///     bandwidth caps run on genuine kernel sockets.
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

/// Most selective-ack entries accepted in one ack datagram (decode rejects
/// higher claims before allocating).
inline constexpr std::size_t kMaxAckSacks = 1024;

/// One decoded datagram. `payload` borrows the input buffer.
struct DatagramView {
  bool is_ack = false;
  /// Data: this frame's link sequence number. Ack: the cumulative floor
  /// (every seq below it is acknowledged).
  std::uint32_t seq = 0;
  /// Ack only: selectively-acknowledged seqs at/above the floor.
  std::vector<std::uint32_t> sacks;
  /// Data only.
  std::uint32_t channel = 0;
  std::span<const std::uint8_t> payload;
};

/// Encode one data datagram: kind | u32 seq | frame body | tag. `tag` must
/// be the seq-covering link tag (see udp_frame_tag) on authenticated links,
/// nullptr otherwise.
std::vector<std::uint8_t> encode_data_datagram(std::uint32_t seq,
                                               const std::vector<std::uint8_t>& body,
                                               const crypto::Digest* tag);

/// Encode one ack datagram: kind | u32 cum | uvarint count | seqs | tag
/// (tag over all preceding bytes when `key` is non-null).
std::vector<std::uint8_t> encode_ack_datagram(std::uint32_t cum,
                                              std::span<const std::uint32_t> sacks,
                                              const crypto::HmacKey* key);

/// Per-frame tag on an authenticated UDP link: HMAC over seq (u32 LE) ||
/// channel uvarint || payload — the frame body's post-length bytes plus the
/// sequence number, via the HmacKey two-span MAC (no concatenation buffer).
crypto::Digest udp_frame_tag(const crypto::HmacKey& key, std::uint32_t seq,
                             const std::vector<std::uint8_t>& body);

/// Decode and authenticate one datagram (`key` = nullptr for plaintext
/// links). Throws SerializationError on structural corruption and
/// ProtocolViolation on MAC failure; a datagram is all-or-nothing, so unlike
/// the TCP stream parser a failure poisons nothing — the caller just drops
/// the datagram.
DatagramView decode_datagram(std::span<const std::uint8_t> bytes,
                             const crypto::HmacKey* key);

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
    /// Retransmission timeout for unacked frames (loopback RTT is tens of
    /// µs; this only bounds recovery latency after a drop). Retransmission
    /// attempts back off exponentially from this base (doubling per
    /// attempt, capped at 32x), so a long-dark peer costs O(log) resend
    /// work instead of a fixed-rate spray.
    std::int64_t rto_ms = 25;
    /// Per-directed-link cap on the selective-repeat unacked map (and its
    /// retransmit schedule). A send that would exceed it throws a typed
    /// ResourceExhausted — never a silent drop. The default is roomy
    /// enough that honest runs (including churn restarts) stay far below
    /// it; tiny values let tests exercise the exhaustion path.
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
