#include "transport/frame.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace delphi::transport {

namespace {

template <typename WritePayload>
std::vector<std::uint8_t> encode_body_bytes(std::uint32_t channel,
                                            std::size_t payload_size,
                                            bool authenticated,
                                            WritePayload&& write_payload) {
  const std::size_t body_len =
      uvarint_size(channel) + payload_size +
      (authenticated ? crypto::kMacTagSize : 0);
  DELPHI_ASSERT(body_len <= kMaxFrameBytes, "frame: payload too large");
  ByteWriter w(4 + uvarint_size(channel) + payload_size);
  w.u32(static_cast<std::uint32_t>(body_len));
  w.uvarint(channel);
  write_payload(w);
  return w.take();
}

}  // namespace

SharedFrameBody encode_frame_body(std::uint32_t channel,
                                  std::span<const std::uint8_t> payload,
                                  bool authenticated) {
  return std::make_shared<const std::vector<std::uint8_t>>(encode_body_bytes(
      channel, payload.size(), authenticated,
      [&](ByteWriter& w) { w.raw(payload); }));
}

SharedFrameBody encode_frame_body(std::uint32_t channel,
                                  const net::MessageBody& msg,
                                  bool authenticated) {
  const std::size_t size = msg.wire_size_cached();
  return std::make_shared<const std::vector<std::uint8_t>>(encode_body_bytes(
      channel, size, authenticated, [&](ByteWriter& w) {
        // The length prefix and the byte accounting both come from
        // wire_size(): a message that writes anything else would desync the
        // stream and miscount its bytes.
        const std::size_t start = w.size();
        msg.serialize(w);
        DELPHI_ASSERT(w.size() - start == size,
                      "frame: serialize() wrote a size other than wire_size()");
      }));
}

crypto::Digest frame_tag(const crypto::HmacKey& key,
                         const std::vector<std::uint8_t>& body) {
  DELPHI_ASSERT(body.size() >= 5, "frame: body too short to tag");
  // MAC input is channel uvarint || payload — exactly the framed bytes after
  // the length prefix.
  return key.tag(
      std::span<const std::uint8_t>(body.data() + 4, body.size() - 4));
}

std::vector<std::uint8_t> encode_frame(std::uint32_t channel,
                                       std::span<const std::uint8_t> payload,
                                       const crypto::HmacKey* key) {
  const bool auth = key != nullptr;
  std::vector<std::uint8_t> frame = encode_body_bytes(
      channel, payload.size(), auth, [&](ByteWriter& w) { w.raw(payload); });
  if (auth) {
    const crypto::Digest tag =
        key->tag(std::span<const std::uint8_t>(frame.data() + 4,
                                               frame.size() - 4));
    frame.insert(frame.end(), tag.begin(), tag.end());
  }
  return frame;
}

std::vector<std::uint8_t> encode_frame(std::uint32_t channel,
                                       std::span<const std::uint8_t> payload,
                                       const crypto::Key* key) {
  if (key == nullptr) {
    return encode_frame(channel, payload,
                        static_cast<const crypto::HmacKey*>(nullptr));
  }
  const crypto::HmacKey hk(*key);
  return encode_frame(channel, payload, &hk);
}

std::vector<std::uint8_t> encode_frame(std::uint32_t channel,
                                       std::span<const std::uint8_t> payload,
                                       std::nullptr_t) {
  return encode_frame(channel, payload,
                      static_cast<const crypto::HmacKey*>(nullptr));
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  // Compact consumed prefix lazily (avoids O(n²) erase-from-front).
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  // Reserve ahead of the insert, but grow geometrically — an exact-fit
  // reserve would force a reallocation per feed while a multi-chunk frame
  // accumulates.
  const std::size_t needed = buf_.size() + bytes.size();
  if (needed > buf_.capacity()) {
    buf_.reserve(std::max(needed, buf_.capacity() * 2));
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<FrameView> FrameParser::next_view() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return std::nullopt;
  ByteReader prefix(std::span<const std::uint8_t>(buf_.data() + pos_, 4));
  const std::uint32_t body_len = prefix.u32();
  if (body_len > kMaxFrameBytes) {
    throw SerializationError("frame: oversized length prefix");
  }
  if (avail < 4 + static_cast<std::size_t>(body_len)) return std::nullopt;

  std::span<const std::uint8_t> body(buf_.data() + pos_ + 4, body_len);
  ByteReader r(body);
  const auto channel = static_cast<std::uint32_t>(r.uvarint());
  const std::size_t tag_len = key_.has_value() ? crypto::kMacTagSize : 0;
  if (r.remaining() < tag_len) {
    throw SerializationError("frame: truncated body");
  }
  const std::size_t payload_len = r.remaining() - tag_len;
  std::span<const std::uint8_t> payload = r.raw(payload_len);

  if (key_.has_value()) {
    crypto::Digest received;
    std::span<const std::uint8_t> tag = r.raw(crypto::kMacTagSize);
    std::memcpy(received.data(), tag.data(), received.size());
    // MAC input = channel uvarint || payload, contiguous in the buffer.
    const crypto::Digest expected =
        key_->tag(body.subspan(0, body.size() - crypto::kMacTagSize));
    if (!crypto::digest_equal(expected, received)) {
      throw ProtocolViolation("frame: HMAC verification failed");
    }
  }

  pos_ += 4 + static_cast<std::size_t>(body_len);
  return FrameView{channel, payload};
}

std::optional<Frame> FrameParser::next() {
  auto view = next_view();
  if (!view) return std::nullopt;
  Frame f;
  f.channel = view->channel;
  f.payload.assign(view->payload.begin(), view->payload.end());
  return f;
}

}  // namespace delphi::transport
