#pragma once
/// \file message.hpp
/// Delphi's bundled wire format (§III-C "Optimizing Communication").
///
/// One DelphiBundle carries every echo a node produced while handling one
/// event, across all levels and checkpoints (on the socket substrates, every
/// echo of one event-loop pass: the host merges the pass's bundles with
/// coalesce()):
///  * explicit entries — echoes of *active* checkpoint instances
///    (level, k, kind, round, value);
///  * default entries — one entry stands for the same echo in EVERY
///    checkpoint of a level that no one has ever referenced explicitly (the
///    single "virtual default instance" aggregating the infinite quiet
///    checkpoints; its state is provably 0 at honest nodes).
/// This is what turns per-checkpoint BinAA traffic into Õ(n²) bits per round.

#include <vector>

#include "binaa/core.hpp"
#include "net/message.hpp"

namespace delphi::protocol {

/// Echo of one active checkpoint instance.
struct ExplicitEcho {
  std::uint32_t level = 0;
  std::int64_t k = 0;  ///< checkpoint index (mu = k * rho_level)
  std::uint8_t kind = 1;
  std::uint32_t round = 1;
  binaa::ScaledValue value = 0;
};

/// Echo of the virtual default instance of one level.
struct DefaultEcho {
  std::uint32_t level = 0;
  std::uint8_t kind = 1;
  std::uint32_t round = 1;
  binaa::ScaledValue value = 0;
};

/// The bundled message.
class DelphiBundle final : public net::CoalescableBody {
 public:
  DelphiBundle(std::vector<DefaultEcho> defaults,
               std::vector<ExplicitEcho> explicits)
      : defaults_(std::move(defaults)), explicits_(std::move(explicits)) {}

  const std::vector<DefaultEcho>& defaults() const noexcept {
    return defaults_;
  }
  const std::vector<ExplicitEcho>& explicits() const noexcept {
    return explicits_;
  }

  bool empty() const noexcept {
    return defaults_.empty() && explicits_.empty();
  }

  std::size_t wire_size() const override;
  void serialize(ByteWriter& w) const override;
  static std::shared_ptr<const DelphiBundle> decode(ByteReader& r);

  /// The parts' defaults, then their explicits, each concatenated in part
  /// order. Delivering it equals delivering the parts one by one: default
  /// and explicit echoes drive disjoint BinAA instances, and each kind keeps
  /// its order. Every part must be a DelphiBundle.
  net::MessagePtr coalesce(
      std::span<const net::MessagePtr> parts) const override;

 private:
  std::vector<DefaultEcho> defaults_;
  std::vector<ExplicitEcho> explicits_;
};

}  // namespace delphi::protocol
