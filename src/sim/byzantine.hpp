#pragma once
/// \file byzantine.hpp
/// Generic Byzantine node behaviours usable against any protocol. Protocol-
/// specific equivocation attacks live next to each protocol's tests; the
/// strategies here exercise the universal failure modes: silence (crash),
/// mid-run crash, and garbage injection.

#include <memory>

#include "net/protocol.hpp"

namespace delphi::sim {

/// A node that never sends anything — the classic crash-from-start fault.
/// Termination is reported immediately so harnesses don't wait on it.
class SilentProtocol final : public net::Protocol {
 public:
  void on_start(net::Context&) override {}
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return true; }
};

/// Undecodable junk: honest protocols must reject it (ProtocolViolation) and
/// keep working.
class GarbageMessage final : public net::MessageBody {
 public:
  explicit GarbageMessage(std::size_t size) : size_(size) {}
  std::size_t wire_size() const override { return size_; }
  void serialize(ByteWriter& w) const override {
    for (std::size_t i = 0; i < size_; ++i) w.u8(0xA5);
  }

 private:
  std::size_t size_;
};

/// Runs the wrapped honest protocol faithfully but crashes (goes silent)
/// after `crash_after_sends` outgoing messages — the "participate a while,
/// then vanish" fault that often breaks naive quorum logic.
class CrashAfterProtocol final : public net::Protocol {
 public:
  CrashAfterProtocol(std::unique_ptr<net::Protocol> inner,
                     std::uint64_t crash_after_sends)
      : inner_(std::move(inner)), budget_(crash_after_sends) {}

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return true; }  // never awaited

 private:
  class FilterContext;
  std::unique_ptr<net::Protocol> inner_;
  std::uint64_t budget_;
  bool crashed_ = false;
};

/// Replies to every delivery with garbage frames to random nodes on random
/// channels — stresses input validation paths.
class GarbageSprayProtocol final : public net::Protocol {
 public:
  /// \param spray_per_delivery  messages emitted per received message.
  /// \param max_size            junk sizes are drawn uniformly in
  ///                            [1, max_size] bytes (the default keeps the
  ///                            historical draw sequence bit-for-bit).
  explicit GarbageSprayProtocol(std::size_t spray_per_delivery = 2,
                                std::size_t max_size = 64)
      : spray_(spray_per_delivery), max_size_(max_size) {}

  void on_start(net::Context& ctx) override { spray(ctx); }
  void on_message(net::Context& ctx, NodeId, std::uint32_t,
                  const net::MessageBody&) override {
    spray(ctx);
  }
  bool terminated() const override { return true; }

 private:
  void spray(net::Context& ctx);
  std::size_t spray_;
  std::size_t max_size_;
  std::uint64_t sent_ = 0;
};

}  // namespace delphi::sim
