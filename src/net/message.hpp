#pragma once
/// \file message.hpp
/// Wire-message abstraction shared by the simulator and the TCP transport.
///
/// Protocol messages are immutable value objects derived from MessageBody.
/// Every message knows its exact encoded size (`wire_size`) and how to
/// serialize itself; the simulator's fast path passes typed message objects
/// by shared_ptr (no per-delivery serialization) while *accounting* bytes as
/// if each copy were encoded, MAC'd and framed — so bandwidth metrics match
/// what the TCP transport actually puts on the wire. Codec unit tests pin the
/// two representations together (serialize → decode → equal, encoded length
/// == wire_size()).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace delphi::net {

/// Base class of all protocol messages.
class MessageBody {
 public:
  MessageBody() = default;
  /// Copies never share the memoized size (it is recomputed on demand);
  /// assignment also invalidates the target's cache — the payload may have
  /// changed size.
  MessageBody(const MessageBody&) noexcept {}
  MessageBody& operator=(const MessageBody&) noexcept {
    cached_wire_size_.store(0, std::memory_order_relaxed);
    return *this;
  }
  virtual ~MessageBody() = default;

  /// Exact number of payload bytes `serialize` will produce. Must be pure:
  /// bodies are immutable, so the size never changes after construction.
  virtual std::size_t wire_size() const = 0;

  /// Memoized wire_size(). A broadcast shares one body across n deliveries
  /// and the simulator accounts bytes once on send and once on receive, so
  /// without the cache a bundle's size is recomputed O(n) times per
  /// broadcast — measurably hot on the CPS benches. Relaxed atomics suffice:
  /// concurrent initializers store the same value (a zero-size payload is
  /// simply recomputed each call).
  std::size_t wire_size_cached() const {
    std::size_t s = cached_wire_size_.load(std::memory_order_relaxed);
    if (s == 0) {
      s = wire_size();
      cached_wire_size_.store(s, std::memory_order_relaxed);
    }
    return s;
  }

  /// Encode the payload (excluding envelope framing and MAC tag).
  virtual void serialize(ByteWriter& w) const = 0;

 private:
  mutable std::atomic<std::size_t> cached_wire_size_{0};
};

/// Shared immutable handle; a broadcast allocates the body once and shares it
/// across all n deliveries.
using MessagePtr = std::shared_ptr<const MessageBody>;

/// A body whose broadcasts a host may merge. The socket substrates hold each
/// broadcast of a coalescable body until the end of their event-loop pass
/// and then send one merged body per channel (the simulator sends every
/// broadcast as it is).
class CoalescableBody : public MessageBody {
 public:
  /// One body whose delivery is equivalent to delivering every part in
  /// order. `parts` are broadcasts on one channel, in broadcast order; the
  /// host calls this on the first of them, and every part is of this
  /// body's type.
  virtual MessagePtr coalesce(std::span<const MessagePtr> parts) const = 0;
};

/// Per-message envelope overhead on the wire:
///   u32 length frame + uvarint channel + payload + 32-byte HMAC tag.
/// Returns the total frame size for a payload of `payload_size` bytes sent on
/// `channel`, with or without authentication.
std::size_t framed_size(std::size_t payload_size, std::uint32_t channel,
                        bool authenticated) noexcept;

}  // namespace delphi::net
