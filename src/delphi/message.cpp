#include "delphi/message.hpp"

#include "common/error.hpp"

namespace delphi::protocol {

std::size_t DelphiBundle::wire_size() const {
  std::size_t sz = uvarint_size(defaults_.size());
  for (const auto& d : defaults_) {
    sz += uvarint_size(d.level) + 1 + uvarint_size(d.round) +
          svarint_size(d.value);
  }
  sz += uvarint_size(explicits_.size());
  for (const auto& e : explicits_) {
    sz += uvarint_size(e.level) + svarint_size(e.k) + 1 +
          uvarint_size(e.round) + svarint_size(e.value);
  }
  return sz;
}

void DelphiBundle::serialize(ByteWriter& w) const {
  w.uvarint(defaults_.size());
  for (const auto& d : defaults_) {
    w.uvarint(d.level);
    w.u8(d.kind);
    w.uvarint(d.round);
    w.svarint(d.value);
  }
  w.uvarint(explicits_.size());
  for (const auto& e : explicits_) {
    w.uvarint(e.level);
    w.svarint(e.k);
    w.u8(e.kind);
    w.uvarint(e.round);
    w.svarint(e.value);
  }
}

net::MessagePtr DelphiBundle::coalesce(
    std::span<const net::MessagePtr> parts) const {
  std::size_t nd = 0;
  std::size_t ne = 0;
  for (const auto& part : parts) {
    const auto* b = dynamic_cast<const DelphiBundle*>(part.get());
    DELPHI_ASSERT(b != nullptr, "bundle: coalescing a foreign body");
    nd += b->defaults_.size();
    ne += b->explicits_.size();
  }
  std::vector<DefaultEcho> defaults;
  std::vector<ExplicitEcho> explicits;
  defaults.reserve(nd);
  explicits.reserve(ne);
  for (const auto& part : parts) {
    const auto& b = static_cast<const DelphiBundle&>(*part);
    defaults.insert(defaults.end(), b.defaults_.begin(), b.defaults_.end());
    explicits.insert(explicits.end(), b.explicits_.begin(),
                     b.explicits_.end());
  }
  return std::make_shared<DelphiBundle>(std::move(defaults),
                                        std::move(explicits));
}

std::shared_ptr<const DelphiBundle> DelphiBundle::decode(ByteReader& r) {
  // Entry counts are validated against the remaining bytes before any
  // allocation: each entry costs at least 4 bytes on the wire, so a Byzantine
  // count cannot trigger an oversized reserve.
  const std::uint64_t nd = r.uvarint();
  DELPHI_REQUIRE(nd <= r.remaining() / 4 + 1, "bundle: default count overflow");
  std::vector<DefaultEcho> defaults;
  defaults.reserve(nd);
  for (std::uint64_t i = 0; i < nd; ++i) {
    DefaultEcho d;
    d.level = static_cast<std::uint32_t>(r.uvarint());
    d.kind = r.u8();
    d.round = static_cast<std::uint32_t>(r.uvarint());
    d.value = r.svarint();
    defaults.push_back(d);
  }
  const std::uint64_t ne = r.uvarint();
  DELPHI_REQUIRE(ne <= r.remaining() / 5 + 1,
                 "bundle: explicit count overflow");
  std::vector<ExplicitEcho> explicits;
  explicits.reserve(ne);
  for (std::uint64_t i = 0; i < ne; ++i) {
    ExplicitEcho e;
    e.level = static_cast<std::uint32_t>(r.uvarint());
    e.k = r.svarint();
    e.kind = r.u8();
    e.round = static_cast<std::uint32_t>(r.uvarint());
    e.value = r.svarint();
    explicits.push_back(e);
  }
  return std::make_shared<DelphiBundle>(std::move(defaults),
                                        std::move(explicits));
}

}  // namespace delphi::protocol
