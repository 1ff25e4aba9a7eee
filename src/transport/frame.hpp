#pragma once
/// \file frame.hpp
/// Wire framing for the TCP transport — the byte-exact realization of the
/// format the simulator *accounts* (net::framed_size):
///
///   u32 length L (little-endian, bytes after the prefix)
///   uvarint channel id
///   payload (protocol message body)
///   32-byte HMAC-SHA256 tag (when the link is authenticated)
///
/// The tag covers channel + payload under the pairwise link key, so a frame
/// forged or tampered with by anyone without the key is rejected before the
/// payload reaches protocol code. Streams are parsed incrementally: feed TCP
/// bytes as they arrive, pop complete frames.
///
/// Hot-path structure (the one-serialization broadcast invariant): everything
/// up to the tag is destination-independent, so a broadcast encodes the
/// length prefix + channel + payload ONCE into an immutable SharedFrameBody
/// and shares that buffer across all n-1 links; only the 32-byte per-link
/// MAC differs, computed from a precomputed crypto::HmacKey midstate and
/// carried alongside the shared body (transport/tcp.cpp appends body + tag
/// to the link's output buffer). The length prefix already includes the tag
/// size, so the shared bytes are final — framed_size accounting is
/// unchanged.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "net/message.hpp"

namespace delphi::transport {

/// Upper bound on a single frame's post-prefix length; larger prefixes are
/// treated as a malicious/corrupt stream (memory-exhaustion guard).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

/// One parsed frame (owning copy of the payload).
struct Frame {
  std::uint32_t channel = 0;
  std::vector<std::uint8_t> payload;
};

/// Zero-copy view of a parsed frame. The payload span borrows the parser's
/// buffer: valid only until the next feed()/next()/next_view() call.
struct FrameView {
  std::uint32_t channel = 0;
  std::span<const std::uint8_t> payload;
};

/// The destination-independent prefix of a frame: u32 length (tag included
/// when authenticated) + channel uvarint + payload. Immutable and shared —
/// one encoding serves every destination of a broadcast.
using SharedFrameBody = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Encode a frame body once. With `authenticated` the length prefix reserves
/// room for the per-link tag that follows the body on the wire.
SharedFrameBody encode_frame_body(std::uint32_t channel,
                                  std::span<const std::uint8_t> payload,
                                  bool authenticated);

/// Serialize `msg` straight into the frame body (no intermediate payload
/// buffer) — the TCP data plane's send path.
SharedFrameBody encode_frame_body(std::uint32_t channel,
                                  const net::MessageBody& msg,
                                  bool authenticated);

/// Per-link MAC over a body's channel + payload bytes (everything after the
/// length prefix) — two compression finishes on the key's midstates.
crypto::Digest frame_tag(const crypto::HmacKey& key, const std::vector<std::uint8_t>& body);

/// Total on-wire bytes of body (+ its tag when authenticated).
inline std::size_t frame_wire_size(const std::vector<std::uint8_t>& body,
                                   bool authenticated) noexcept {
  return body.size() + (authenticated ? crypto::kMacTagSize : 0);
}

/// Encode a complete standalone frame (body + tag in one buffer). `key ==
/// nullptr` produces an unauthenticated frame (matching
/// framed_size(..., authenticated=false)).
std::vector<std::uint8_t> encode_frame(std::uint32_t channel,
                                       std::span<const std::uint8_t> payload,
                                       const crypto::HmacKey* key);

/// Convenience overload deriving the HMAC midstates per call (tests and
/// one-shot callers; long-lived links should hold a crypto::HmacKey).
std::vector<std::uint8_t> encode_frame(std::uint32_t channel,
                                       std::span<const std::uint8_t> payload,
                                       const crypto::Key* key);

/// Unauthenticated frame (disambiguates a literal nullptr key).
std::vector<std::uint8_t> encode_frame(std::uint32_t channel,
                                       std::span<const std::uint8_t> payload,
                                       std::nullptr_t);

/// Incremental frame decoder for one directed link.
///
/// Throws SerializationError on structurally corrupt streams and
/// ProtocolViolation on authentication failure; a TCP stream that fails
/// either way is unrecoverable (framing is lost), so the caller must close
/// the link.
class FrameParser {
 public:
  /// Unauthenticated link.
  FrameParser() = default;
  explicit FrameParser(std::nullptr_t) {}

  /// \param key  pairwise link key midstates, or nullptr for unauthenticated
  ///             links (copied — the parser owns its verification state).
  explicit FrameParser(const crypto::HmacKey* key) {
    if (key != nullptr) key_ = *key;
  }

  /// Convenience: derive the midstates from a raw key (tests).
  explicit FrameParser(const crypto::Key* key) {
    if (key != nullptr) key_.emplace(*key);
  }

  /// Append raw stream bytes (buffer is reserved ahead and reused across
  /// frames; the consumed prefix is compacted lazily).
  void feed(std::span<const std::uint8_t> bytes);

  /// Pop the next complete frame as a borrowed view (no payload copy), or
  /// nullopt if more bytes are needed. The view dies at the next
  /// feed()/next()/next_view() call.
  std::optional<FrameView> next_view();

  /// Pop the next complete frame, copying the payload out.
  std::optional<Frame> next();

  /// Bytes currently buffered (tests / diagnostics).
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::optional<crypto::HmacKey> key_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace delphi::transport
