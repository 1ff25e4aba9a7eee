#pragma once
/// Test bodies for the socket substrates' broadcast coalescing: IdList, a
/// coalescable body that carries u32 ids (merging concatenates them, so a
/// receiver can count the broadcasts one frame carries and see their
/// order), and Marker, a body that is not coalescable and so leaves at
/// once. Channel kIdChannel carries IdLists and kMarkerChannel Markers.
/// expect_held_broadcasts_leave_as_one_frame runs the same check on any
/// socket cluster.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"

namespace delphi::test {

inline constexpr std::uint32_t kIdChannel = 1;
inline constexpr std::uint32_t kMarkerChannel = 2;

/// A coalescable list of ids: uvarint count, then one uvarint per id.
class IdList final : public net::CoalescableBody {
 public:
  explicit IdList(std::vector<std::uint32_t> ids) : ids_(std::move(ids)) {}

  const std::vector<std::uint32_t>& ids() const noexcept { return ids_; }

  std::size_t wire_size() const override {
    std::size_t sz = uvarint_size(ids_.size());
    for (const auto id : ids_) sz += uvarint_size(id);
    return sz;
  }
  void serialize(ByteWriter& w) const override {
    w.uvarint(ids_.size());
    for (const auto id : ids_) w.uvarint(id);
  }
  static net::MessagePtr decode(ByteReader& r) {
    const std::uint64_t count = r.uvarint();
    DELPHI_REQUIRE(count <= r.remaining(), "IdList: count overflow");
    std::vector<std::uint32_t> ids;
    ids.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<std::uint32_t>(r.uvarint()));
    }
    return std::make_shared<IdList>(std::move(ids));
  }

  net::MessagePtr coalesce(
      std::span<const net::MessagePtr> parts) const override {
    std::vector<std::uint32_t> ids;
    for (const auto& part : parts) {
      const auto& p = dynamic_cast<const IdList&>(*part);
      ids.insert(ids.end(), p.ids_.begin(), p.ids_.end());
    }
    return std::make_shared<IdList>(std::move(ids));
  }

 private:
  std::vector<std::uint32_t> ids_;
};

/// An opaque payload carried verbatim; not coalescable.
class Marker final : public net::MessageBody {
 public:
  explicit Marker(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}
  std::size_t wire_size() const override { return bytes_.size(); }
  void serialize(ByteWriter& w) const override { w.raw(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// The socket decoder for both bodies.
inline net::MessagePtr decode_id_or_marker(std::uint32_t channel,
                                           ByteReader& r) {
  if (channel == kIdChannel) return IdList::decode(r);
  DELPHI_REQUIRE(channel == kMarkerChannel, "unexpected channel");
  const auto s = r.raw(r.remaining());
  return std::make_shared<Marker>(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

/// Node 0's on_start broadcasts kIds one-id IdLists, then one Marker. Node
/// 1 records each body node 0 sends it, a Marker as an empty id list.
class HoldProbe final : public net::Protocol {
 public:
  static constexpr std::uint32_t kIds = 100;

  explicit HoldProbe(bool receiver) : receiver_(receiver) {}

  void on_start(net::Context& ctx) override {
    if (receiver_) return;
    for (std::uint32_t id = 0; id < kIds; ++id) {
      ctx.broadcast(kIdChannel,
                    std::make_shared<IdList>(std::vector<std::uint32_t>{id}));
    }
    ctx.broadcast(kMarkerChannel,
                  std::make_shared<Marker>(std::vector<std::uint8_t>{0xAB}));
  }
  void on_message(net::Context&, NodeId from, std::uint32_t,
                  const net::MessageBody& body) override {
    if (!receiver_ || from != 0) return;
    const auto* list = dynamic_cast<const IdList*>(&body);
    if (list == nullptr) {
      marker_ = true;
      bodies_.emplace_back();
      return;
    }
    ids_ += list->ids().size();
    bodies_.push_back(list->ids());
  }
  bool terminated() const override {
    return !receiver_ || (marker_ && ids_ >= kIds);
  }

  const std::vector<std::vector<std::uint32_t>>& bodies() const {
    return bodies_;
  }

 private:
  bool receiver_;
  bool marker_ = false;
  std::size_t ids_ = 0;
  std::vector<std::vector<std::uint32_t>> bodies_;
};

/// On an authenticated two-node `Cluster`, node 1 must get node 0's kIds
/// held broadcasts as one frame, in order, and the Marker broadcast after
/// them before it: a body that is not coalescable is never held.
template <typename Cluster>
void expect_held_broadcasts_leave_as_one_frame() {
  typename Cluster::Options opts;
  opts.n = 2;
  opts.auth = true;
  Cluster cluster(opts);
  cluster.start(
      [](NodeId i) { return std::make_unique<HoldProbe>(i == 1); },
      decode_id_or_marker);
  ASSERT_TRUE(cluster.wait());
  ASSERT_TRUE(cluster.failures().empty());
  std::vector<std::uint32_t> all(HoldProbe::kIds);
  for (std::uint32_t id = 0; id < HoldProbe::kIds; ++id) all[id] = id;
  const auto& rx = dynamic_cast<const HoldProbe&>(cluster.protocol(1));
  ASSERT_EQ(rx.bodies().size(), 2u);
  EXPECT_TRUE(rx.bodies()[0].empty()) << "the Marker must arrive first";
  EXPECT_EQ(rx.bodies()[1], all);
  EXPECT_EQ(cluster.metrics(1).msgs_delivered, 2u);
  EXPECT_EQ(cluster.metrics(1).malformed_dropped, 0u);
  // Node 0 sent two frames, and delivered the same two bodies to itself.
  EXPECT_EQ(cluster.metrics(0).msgs_sent, 2u);
  EXPECT_EQ(cluster.metrics(0).msgs_delivered, 2u);
}

}  // namespace delphi::test
