#pragma once
/// \file message.hpp
/// Wire messages for standalone BinAA instances, with plain and compact
/// codecs.
///
/// Plain codec: kind/round/value with the value as a signed varint of the
/// scaled dyadic numerator.
///
/// Compact codec (the paper's §II-C "VAL 2L/L/C/R/2R" optimization): because
/// a node's round-(r+1) state moves by at most two granularity steps relative
/// to round r, the value can be transmitted as a 3-bit move code instead of a
/// full number, provided links are FIFO so the receiver can track each
/// sender's trajectory (delta_codec.hpp implements and tests that
/// reconstruction). Messages built with `compact = true` account their wire
/// size accordingly; `serialize` always emits the self-contained plain form
/// (what our TCP transport uses). The ablation bench quantifies the savings,
/// matching the paper's O(n² log(1/eps) loglog(1/eps)) refinement.

#include "binaa/core.hpp"
#include "net/message.hpp"

namespace delphi::binaa {

/// ECHO1/ECHO2 message of one BinAA instance.
class EchoMessage final : public net::MessageBody {
 public:
  EchoMessage(std::uint8_t kind, std::uint32_t round, ScaledValue value,
              bool compact = false)
      : kind_(kind), round_(round), value_(value), compact_(compact) {}

  std::uint8_t kind() const noexcept { return kind_; }
  std::uint32_t round() const noexcept { return round_; }
  ScaledValue value() const noexcept { return value_; }

  std::size_t wire_size() const override {
    if (compact_) {
      // kind+move packed in one byte, plus the round number — the
      // log log(1/eps) factor the paper attributes to round indices.
      return 1 + uvarint_size(round_);
    }
    return 1 + uvarint_size(round_) + svarint_size(value_);
  }

  void serialize(ByteWriter& w) const override {
    w.u8(kind_);
    w.uvarint(round_);
    w.svarint(value_);
  }

  static std::shared_ptr<const EchoMessage> decode(ByteReader& r) {
    const std::uint8_t kind = r.u8();
    DELPHI_REQUIRE(kind == 1 || kind == 2, "BinAA: bad echo kind");
    const auto round = static_cast<std::uint32_t>(r.uvarint());
    const ScaledValue value = r.svarint();
    return std::make_shared<EchoMessage>(kind, round, value);
  }

 private:
  std::uint8_t kind_;
  std::uint32_t round_;
  ScaledValue value_;
  bool compact_;
};

}  // namespace delphi::binaa
