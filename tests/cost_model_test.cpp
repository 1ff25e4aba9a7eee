/// Exact-value tests for sim::CostModel application: fractional-µs rounding
/// (per charge, half away from zero), the zero-cost fast() path, and uplink
/// serialization — including back-to-back frame queuing on one uplink, the
/// busy-until clock carrying across handler invocations, and loopback
/// bypassing the network entirely. Every expectation is computed by hand from
/// the documented model, so a change to rounding or queuing order fails with
/// an exact diff.

#include <gtest/gtest.h>

#include <vector>

#include "net/message.hpp"
#include "net/protocol.hpp"
#include "sim/simulator.hpp"

namespace delphi::sim {
namespace {

/// Payload of exactly 1 + pad bytes (uvarint(0) + pad zeros).
class PadMessage final : public net::MessageBody {
 public:
  explicit PadMessage(std::size_t pad) : pad_(pad) {}
  std::size_t wire_size() const override { return 1 + pad_; }
  void serialize(ByteWriter& w) const override {
    w.uvarint(0);
    for (std::size_t i = 0; i < pad_; ++i) w.u8(0);
  }

 private:
  std::size_t pad_;
};

/// Node 1 sends the scripted pads (to node 0 unless `to_self`) on start;
/// node 0 records each delivery's handler start time (ctx.now()).
class Scripted final : public net::Protocol {
 public:
  Scripted(std::vector<std::size_t> pads, bool receiver_terminates,
           bool second_to_self = false)
      : pads_(std::move(pads)),
        receiver_terminates_(receiver_terminates),
        second_to_self_(second_to_self) {}

  void on_start(net::Context& ctx) override {
    if (ctx.self() != 1) return;
    for (std::size_t i = 0; i < pads_.size(); ++i) {
      const NodeId to = (second_to_self_ && i == 1) ? 1 : 0;
      ctx.send(to, /*channel=*/0, std::make_shared<PadMessage>(pads_[i]));
    }
    sent_ = true;
  }

  void on_message(net::Context& ctx, NodeId, std::uint32_t,
                  const net::MessageBody&) override {
    delivery_times_.push_back(ctx.now());
  }

  bool terminated() const override {
    return sent_ || (receiver_terminates_ && !delivery_times_.empty());
  }

  const std::vector<SimTime>& delivery_times() const {
    return delivery_times_;
  }

 private:
  std::vector<std::size_t> pads_;
  bool receiver_terminates_;
  bool second_to_self_;
  bool sent_ = false;
  std::vector<SimTime> delivery_times_;
};

/// Two-node run with constant 1000 µs latency and no auth tags; returns the
/// simulator after draining (receiver never terminates) or after the first
/// delivery (receiver_terminates).
struct RunResult {
  SimTime now;
  SimTime receiver_terminated_at;
  std::vector<SimTime> deliveries;
  std::uint64_t total_msgs;
  std::uint64_t total_bytes;
  std::uint64_t receiver_delivered;
};

RunResult run_scripted(const CostModel& cost, std::vector<std::size_t> pads,
                       bool receiver_terminates = false,
                       bool second_to_self = false) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 1;
  cfg.latency = std::make_shared<UniformLatency>(1000, 1000);
  cfg.cost = cost;
  cfg.auth_channels = false;
  Simulator sim(cfg);
  sim.add_node(
      std::make_unique<Scripted>(pads, receiver_terminates, second_to_self));
  sim.add_node(
      std::make_unique<Scripted>(pads, receiver_terminates, second_to_self));
  sim.run();
  RunResult r;
  r.now = sim.now();
  r.receiver_terminated_at = sim.node_metrics(0).terminated_at;
  r.deliveries = sim.node_as<Scripted>(0).delivery_times();
  r.total_msgs = sim.metrics().total_msgs;
  r.total_bytes = sim.metrics().total_bytes;
  r.receiver_delivered = sim.node_metrics(0).msgs_delivered;
  return r;
}

// Frame layout with auth off, channel 0, pad p:
//   4 (length) + 1 (channel uvarint) + (1 + p) payload  =  6 + p bytes.
constexpr std::size_t frame_bytes(std::size_t pad) { return 6 + pad; }

TEST(CostModel, FastPathIsExactlyZeroCost) {
  // fast(): no CPU costs, uplink so fast that serialization rounds to 0 µs —
  // a 10 kB frame still arrives after exactly the 1000 µs base latency.
  const auto r = run_scripted(CostModel::fast(), {10'000});
  EXPECT_EQ(r.deliveries, (std::vector<SimTime>{1000}));
  EXPECT_EQ(r.now, 1000);
  EXPECT_EQ(r.total_bytes, frame_bytes(10'000));
}

TEST(CostModel, PerSendFractionRoundsPerMessageNotAccumulated) {
  // 0.6 µs per send rounds to 1 µs on *each* application: three sends push
  // the CPU clock by 3 µs total. Accumulate-then-round (llround(1.8) = 2)
  // would arrive one µs earlier and fail.
  CostModel cost = CostModel::fast();
  cost.per_msg_send_us = 0.6;
  const auto r = run_scripted(cost, {0, 0, 0});
  EXPECT_EQ(r.deliveries, (std::vector<SimTime>{1001, 1002, 1003}));
  EXPECT_EQ(r.now, 1003);
}

TEST(CostModel, HalfMicrosecondRoundsAwayFromZero) {
  // llround semantics: 0.5 µs -> 1 µs (not banker's rounding to 0).
  CostModel cost = CostModel::fast();
  cost.per_msg_send_us = 0.5;
  const auto r = run_scripted(cost, {0});
  EXPECT_EQ(r.deliveries, (std::vector<SimTime>{1001}));
}

TEST(CostModel, RecvCostAccumulatesFractionsBeforeRounding) {
  // Receive cost = per_msg_recv_us + wire * per_byte_cpu_us, accumulated in
  // double and rounded once: 0.3 + 2 * 0.1 = 0.5 -> 1 µs; with a 1-byte
  // payload 0.3 + 0.1 = 0.4 -> 0 µs. The send side charges per-byte CPU on
  // the whole 6- or 7-byte frame (llround(0.6) = llround(0.7) = 1 µs), so
  // both messages arrive at 1001 and only the receive-side rounding differs.
  // Observed via the receiver's terminated_at (= arrival + receive cost).
  CostModel cost = CostModel::fast();
  cost.per_msg_recv_us = 0.3;
  cost.per_byte_cpu_us = 0.1;
  const auto one_byte = run_scripted(cost, {0}, /*receiver_terminates=*/true);
  EXPECT_EQ(one_byte.receiver_terminated_at, 1001);
  const auto two_bytes = run_scripted(cost, {1}, /*receiver_terminates=*/true);
  EXPECT_EQ(two_bytes.receiver_terminated_at, 1002);
}

TEST(CostModel, BackToBackFramesQueueOnOneUplink) {
  // At 1 B/µs, two frames sent from the same handler serialize strictly one
  // after the other: frame 1 (100 B) departs at 100, frame 2 (200 B) at 300.
  CostModel cost = CostModel::fast();
  cost.uplink_bytes_per_us = 1.0;
  const auto r = run_scripted(cost, {94, 194});
  ASSERT_EQ(frame_bytes(94), 100u);
  ASSERT_EQ(frame_bytes(194), 200u);
  EXPECT_EQ(r.deliveries, (std::vector<SimTime>{1100, 1300}));
}

TEST(CostModel, UplinkBusyPersistsAcrossHandlers) {
  // Handler 1 (on_start) queues a 1000-byte frame to node 0 and a loopback
  // message to self; the loopback handler fires at CPU time 0 but its
  // network send must still wait for the uplink to drain the first frame.
  CostModel cost = CostModel::fast();
  cost.uplink_bytes_per_us = 1.0;

  class TwoPhase final : public net::Protocol {
   public:
    void on_start(net::Context& ctx) override {
      if (ctx.self() != 1) return;
      ctx.send(0, 0, std::make_shared<PadMessage>(994));  // 1000 B frame
      ctx.send(1, 0, std::make_shared<PadMessage>(0));    // loopback trigger
    }
    void on_message(net::Context& ctx, NodeId, std::uint32_t,
                    const net::MessageBody&) override {
      if (ctx.self() == 1) {
        ctx.send(0, 0, std::make_shared<PadMessage>(94));  // 100 B frame
      } else {
        deliveries_.push_back(ctx.now());
      }
    }
    bool terminated() const override { return false; }
    std::vector<SimTime> deliveries_;
  };

  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 1;
  cfg.latency = std::make_shared<UniformLatency>(1000, 1000);
  cfg.cost = cost;
  cfg.auth_channels = false;
  Simulator sim(cfg);
  sim.add_node(std::make_unique<TwoPhase>());
  sim.add_node(std::make_unique<TwoPhase>());
  sim.run();
  // Frame 1 departs at 1000 -> arrives 2000. The loopback handler runs at
  // t = 0, but its 100 B frame only starts serializing once the uplink frees
  // at 1000, departing 1100 -> arriving 2100.
  EXPECT_EQ(sim.node_as<TwoPhase>(0).deliveries_,
            (std::vector<SimTime>{2000, 2100}));
}

TEST(CostModel, LoopbackCostsNoNetworkResources) {
  // A self-send is delivered through the local queue: it counts as a
  // delivery on the receiver but contributes no frames, bytes, or uplink
  // time. Only the node 1 -> node 0 message touches the network.
  const auto r = run_scripted(CostModel::fast(), {0, 0},
                              /*receiver_terminates=*/false,
                              /*second_to_self=*/true);
  EXPECT_EQ(r.total_msgs, 1u);
  EXPECT_EQ(r.total_bytes, frame_bytes(0));
  EXPECT_EQ(r.deliveries, (std::vector<SimTime>{1000}));
}

}  // namespace
}  // namespace delphi::sim
