/// Integration tests for the UDP datagram substrate (transport/udp.hpp +
/// scenario::UdpRuntime); fault-free parity with the simulator for every
/// registry protocol is in substrate_suite_test:
///   * every adversary= form from the fault plane runs on udp through the
///     netem shim;
///   * agreement under loss — every protocol still terminates with the shim
///     dropping 1% and 5% of datagrams (selective-repeat ARQ recovery);
///   * the dup filter under datagram duplication keeps delivery exactly-once
///     (loss makes the ARQ retransmit; parity of delivered message counts
///     pins that duplicates never reach the protocol);
///   * the receive-buffer window: three peers streaming at a receiver that
///     stalls lose no datagram to its socket buffer, so nothing waits out
///     the retransmission timeout;
///   * broadcast coalescing: one loop pass's held broadcasts on a channel
///     reach a peer as one frame.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "transport/udp.hpp"
#include "tests/coalesce_util.hpp"

namespace delphi::transport {
namespace {

using scenario::ProtocolRegistry;
using scenario::ScenarioSpec;
using scenario::Substrate;
using scenario::UdpRuntime;

ScenarioSpec small_spec(const std::string& protocol, std::size_t n) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.testbed = scenario::TestbedKind::kAsync;
  spec.substrate = Substrate::kUdp;
  spec.n = n;
  spec.seed = 7;
  return spec;
}

// ------------------------------------------------------------- dup filter

TEST(UdpCrossSubstrate, DupFilterNeverInflatesDeliveries) {
  // Under 5% loss with a hair-trigger RTO the ARQ retransmits aggressively,
  // so the same datagram reaches a receiver more than once. The dup filter
  // must keep protocol deliveries at-most-once. How many messages land
  // before the cluster stops is schedule-dependent (either run can cut off
  // tail traffic when every protocol has terminated), so the invariant is
  // the schedule-independent ceiling: an rbc run multicasts at most
  // 1 SEND + n ECHO + n READY broadcasts, each delivered at most once per
  // node — a duplicate leaking through under retransmit pressure blows
  // straight past (2n+1)*n.
  constexpr std::size_t kN = 4;
  constexpr std::uint64_t kMaxDeliveries = (2 * kN + 1) * kN;
  ScenarioSpec spec = small_spec("rbc", kN);
  const auto clean = UdpRuntime().run(spec);
  spec.params["loss"] = 0.05;
  spec.params["rto-ms"] = 5;  // fast retransmit = more duplicate pressure
  const auto lossy = UdpRuntime().run(spec);
  ASSERT_TRUE(clean.ok);
  ASSERT_TRUE(lossy.ok);
  EXPECT_EQ(clean.outputs, lossy.outputs);
  std::uint64_t clean_delivered = 0, lossy_delivered = 0;
  for (const auto& nc : clean.nodes) clean_delivered += nc.msgs_delivered;
  for (const auto& nc : lossy.nodes) lossy_delivered += nc.msgs_delivered;
  EXPECT_LE(clean_delivered, kMaxDeliveries);
  EXPECT_LE(lossy_delivered, kMaxDeliveries);
  EXPECT_GT(lossy_delivered, 0u);
}

// ----------------------------------------------------------- netem plane

TEST(UdpRuntimeSuite, EveryAdversaryFormRunsThroughTheShim) {
  for (const char* adversary : {"random-delay:2000", "targeted-lag:1:5000",
                                "partition:1:20000", "burst:20000"}) {
    SCOPED_TRACE(adversary);
    ScenarioSpec spec = small_spec("rbc", 4);
    spec.adversary = scenario::parse_adversary(adversary);
    const auto rep = UdpRuntime().run(spec);
    EXPECT_TRUE(rep.ok) << rep.unfinished.size() << " unfinished";
  }
}

TEST(UdpRuntimeSuite, AgreementUnderLoss) {
  // The acceptance gate: every registered protocol terminates with the shim
  // dropping datagrams — the selective-repeat ARQ absorbs the loss. 1% is
  // the paper-realistic WAN rate; 5% forces multi-round recovery.
  for (const auto& name : ProtocolRegistry::global().names()) {
    for (const double loss : {0.01, 0.05}) {
      SCOPED_TRACE(name + " @ loss=" + std::to_string(loss));
      ScenarioSpec spec = small_spec(name, 4);
      spec.params["loss"] = loss;
      spec.params["timeout-ms"] = 60'000;
      const auto rep = UdpRuntime().run(spec);
      EXPECT_TRUE(rep.ok) << name << " @ " << loss << ": "
                          << rep.unfinished.size() << " unfinished";
      EXPECT_FALSE(rep.outputs.empty());
    }
  }
}

TEST(UdpRuntimeSuite, BurstLossAndRateShapingStillTerminate) {
  ScenarioSpec spec = small_spec("dolev", 4);
  spec.params["rounds"] = 3;
  spec.params["loss"] = 0.05;
  spec.params["loss-burst"] = 4;
  spec.params["rate-kbps"] = 4'000;
  spec.params["rto-ms"] = 10;
  spec.params["timeout-ms"] = 60'000;
  const auto rep = UdpRuntime().run(spec);
  EXPECT_TRUE(rep.ok) << rep.unfinished.size() << " unfinished";
}

// ------------------------------------------------- receive-buffer window

/// A 1 KiB frame naming its sender and index; every other byte follows from
/// those two, so the receiver checks the frame byte for byte.
class NumberedKiB final : public net::MessageBody {
 public:
  static constexpr std::size_t kBytes = 1024;

  NumberedKiB(NodeId sender, std::uint32_t index, bool intact = true)
      : sender_(sender), index_(index), intact_(intact) {}

  static std::uint8_t fill(NodeId sender, std::uint32_t index, std::size_t i) {
    return static_cast<std::uint8_t>(sender * 131 + index * 7 + i);
  }

  std::size_t wire_size() const override { return kBytes; }
  void serialize(ByteWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(sender_));
    w.u32(index_);
    for (std::size_t i = 8; i < kBytes; ++i) w.u8(fill(sender_, index_, i));
  }

  static net::MessagePtr decode(std::uint32_t, ByteReader& r) {
    const NodeId sender = r.u32();
    const std::uint32_t index = r.u32();
    bool intact = true;
    for (std::size_t i = 8; i < kBytes; ++i) {
      intact = intact && r.u8() == fill(sender, index, i);
    }
    return std::make_shared<NumberedKiB>(sender, index, intact);
  }

  NodeId sender() const { return sender_; }
  std::uint32_t index() const { return index_; }
  bool intact() const { return intact_; }

 private:
  NodeId sender_;
  std::uint32_t index_;
  bool intact_;
};

/// Sends `count` numbered frames to node 0 from on_start.
class KiBStreamer final : public net::Protocol {
 public:
  explicit KiBStreamer(std::uint32_t count) : count_(count) {}
  void on_start(net::Context& ctx) override {
    for (std::uint32_t i = 0; i < count_; ++i) {
      ctx.send(0, 0, std::make_shared<NumberedKiB>(ctx.self(), i));
    }
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return true; }

 private:
  std::uint32_t count_;
};

/// Node 0: sleeps in its first handler, then counts every (sender, index).
class StalledSink final : public net::Protocol {
 public:
  StalledSink(std::size_t n, std::uint32_t count)
      : count_(count), seen_(n, std::vector<int>(count, 0)) {}
  void on_start(net::Context&) override {}
  void on_message(net::Context&, NodeId from, std::uint32_t,
                  const net::MessageBody& body) override {
    if (received_ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    ++received_;
    const auto& m = dynamic_cast<const NumberedKiB&>(body);
    if (m.sender() != from || m.index() >= count_ || !m.intact()) {
      ++bad_;
      return;
    }
    ++seen_[from][m.index()];
  }
  bool terminated() const override {
    return received_ == (seen_.size() - 1) * count_;
  }

  std::uint32_t count_;
  std::size_t received_ = 0;
  std::size_t bad_ = 0;
  std::vector<std::vector<int>> seen_;
};

TEST(UdpBackpressure, StalledReceiverLosesNoDatagram) {
  // Three peers each stream 1,000 KiB frames at node 0, whose first handler
  // stalls for 300 ms. Unwindowed, the backlog overflows node 0's receive
  // buffer and the lost frames wait out the 2 s RTO; with the window every
  // datagram fits, nothing is re-sent, and the run ends well inside it.
  constexpr std::size_t kN = 4;
  constexpr std::uint32_t kCount = 1'000;
  UdpMesh::Options opts;
  opts.n = kN;
  opts.rto_ms = 2'000;
  opts.timeout_ms = 30'000;
  UdpMesh mesh(opts);
  const auto t0 = std::chrono::steady_clock::now();
  mesh.start(
      [&](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 0) return std::make_unique<StalledSink>(kN, kCount);
        return std::make_unique<KiBStreamer>(kCount);
      },
      &NumberedKiB::decode);
  ASSERT_TRUE(mesh.wait());
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // UDP keeps no order across datagrams: check the set, exactly once each.
  const auto& sink = dynamic_cast<const StalledSink&>(mesh.protocol(0));
  EXPECT_EQ(sink.bad_, 0u);
  for (NodeId from = 1; from < kN; ++from) {
    for (std::uint32_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(sink.seen_[from][i], 1) << "sender " << from << " index " << i;
    }
  }
  std::uint64_t catchup = 0;
  for (NodeId i = 0; i < kN; ++i) {
    EXPECT_EQ(mesh.metrics(i).malformed_dropped, 0u) << "node " << i;
    catchup += mesh.metrics(i).catchup_frames;
  }
  EXPECT_EQ(catchup, 0u);
  EXPECT_LT(elapsed_ms, 1'500);
}

// ------------------------------------------------- broadcast coalescing

TEST(UdpCoalesce, HeldBroadcastsLeaveAsOneFrame) {
  test::expect_held_broadcasts_leave_as_one_frame<UdpMesh>();
}

}  // namespace
}  // namespace delphi::transport
