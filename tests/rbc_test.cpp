/// Tests for Bracha reliable broadcast: Validity, Agreement, Totality under
/// benign asynchrony, network adversaries, crash faults, equivocation, and
/// garbage injection; parameterized over system sizes and seeds.

#include <gtest/gtest.h>

#include "rbc/rbc.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::rbc {
namespace {

using test::RbcEquivocator;

std::vector<std::uint8_t> payload_of(std::uint8_t tag) {
  return {tag, 1, 2, 3};
}

RbcInstance::Config rbc_cfg(std::size_t n, NodeId broadcaster) {
  return RbcInstance::Config{n, max_faults(n), broadcaster, /*channel=*/0,
                             /*max_payload=*/1024};
}

struct SweepParam {
  std::size_t n;
  std::uint64_t seed;
};

class RbcSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RbcSweep, HonestBroadcasterAllDeliver) {
  const auto [n, seed] = GetParam();
  sim::Simulator sim(test::async_config(n, seed));
  const auto value = payload_of(42);
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<RbcProtocol>(
        rbc_cfg(n, 0), i == 0 ? value : std::vector<std::uint8_t>{}));
  }
  EXPECT_TRUE(sim.run());
}

TEST_P(RbcSweep, DeliveredValueMatchesBroadcast) {
  const auto [n, seed] = GetParam();
  sim::Simulator sim(test::async_config(n, seed));
  const auto value = payload_of(7);
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<RbcProtocol>(
        rbc_cfg(n, 0), i == 0 ? value : std::vector<std::uint8_t>{}));
  }
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_EQ(sim.node_as<RbcProtocol>(i).instance().value(), value);
  }
}

TEST_P(RbcSweep, ToleratesTCrashedNodes) {
  const auto [n, seed] = GetParam();
  std::set<NodeId> byz;  // the top t = max_faults(n) ids
  for (NodeId i = n - max_faults(n); i < n; ++i) byz.insert(i);
  sim::Simulator sim(test::adversarial_config(n, seed));
  const auto value = payload_of(9);
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
    } else {
      sim.add_node(std::make_unique<RbcProtocol>(
          rbc_cfg(n, 0), i == 0 ? value : std::vector<std::uint8_t>{}));
    }
  }
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) continue;
    EXPECT_EQ(sim.node_as<RbcProtocol>(i).instance().value(), value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RbcSweep,
    ::testing::Values(SweepParam{4, 1}, SweepParam{4, 2}, SweepParam{7, 3},
                      SweepParam{7, 4}, SweepParam{10, 5}, SweepParam{13, 6},
                      SweepParam{16, 7}, SweepParam{25, 8}),
    [](const auto& test_info) {
      return "n" + std::to_string(test_info.param.n) + "_s" +
             std::to_string(test_info.param.seed);
    });

TEST(Rbc, EquivocatingBroadcasterCannotSplitHonest) {
  // Byzantine broadcaster sends payload A to one half and B to the other.
  // Agreement: every honest node that delivers must deliver the same value.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 7;
    sim::Simulator sim(test::adversarial_config(n, seed));
    for (NodeId i = 0; i + 1 < n; ++i) {
      sim.add_node(std::make_unique<RbcProtocol>(rbc_cfg(n, n - 1)));
    }
    sim.add_node(std::make_unique<RbcEquivocator>(0, payload_of(1),
                                                  payload_of(2)));
    sim.set_byzantine({static_cast<NodeId>(n - 1)});
    sim.run();

    std::vector<std::vector<std::uint8_t>> delivered;
    for (NodeId i = 0; i + 1 < n; ++i) {
      const auto& inst = sim.node_as<RbcProtocol>(i).instance();
      if (inst.delivered()) delivered.push_back(inst.value());
    }
    for (std::size_t i = 1; i < delivered.size(); ++i) {
      EXPECT_EQ(delivered[i], delivered[0]) << "seed " << seed;
    }
  }
}

TEST(Rbc, TotalityUnderPartialEquivocation) {
  // If any honest node delivers, all honest nodes must deliver (we detect
  // this by checking "all or nothing" across many schedules).
  int runs_with_delivery = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 4;
    sim::Simulator sim(test::adversarial_config(n, seed));
    for (NodeId i = 0; i + 1 < n; ++i) {
      sim.add_node(std::make_unique<RbcProtocol>(rbc_cfg(n, n - 1)));
    }
    sim.add_node(
        std::make_unique<RbcEquivocator>(0, payload_of(1), payload_of(2)));
    sim.set_byzantine({static_cast<NodeId>(n - 1)});
    sim.run();
    std::size_t delivered = 0;
    for (NodeId i = 0; i + 1 < n; ++i) {
      delivered += sim.node_as<RbcProtocol>(i).instance().delivered();
    }
    EXPECT_TRUE(delivered == 0 || delivered == n - 1) << "seed " << seed;
    runs_with_delivery += (delivered == n - 1);
  }
  // With SEND+ECHO equivocation to clean halves, delivery usually happens.
  EXPECT_GT(runs_with_delivery, 0);
}

TEST(Rbc, GarbageSprayersDoNotBlockDelivery) {
  const std::size_t n = 7;
  sim::Simulator sim(test::async_config(n, 11));
  const auto value = payload_of(3);
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(std::make_unique<RbcProtocol>(
        rbc_cfg(n, 0), i == 0 ? value : std::vector<std::uint8_t>{}));
  }
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 2 < n; ++i) {
    EXPECT_EQ(sim.node_as<RbcProtocol>(i).instance().value(), value);
  }
}

TEST(Rbc, NonBroadcasterSendIgnored) {
  const std::size_t n = 4;
  sim::Simulator sim(test::async_config(n, 12));
  // The designated broadcaster (node 2) has crashed; Byzantine node 3 sends
  // a forged SEND in its stead. Nothing may ever be delivered.
  class ForgedSend final : public net::Protocol {
   public:
    void on_start(net::Context& ctx) override {
      ctx.broadcast(0, std::make_shared<RbcMessage>(RbcMessage::Kind::kSend,
                                                    payload_of(99)));
    }
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return true; }
  };
  sim.add_node(std::make_unique<RbcProtocol>(rbc_cfg(n, 2)));
  sim.add_node(std::make_unique<RbcProtocol>(rbc_cfg(n, 2)));
  sim.add_node(std::make_unique<sim::SilentProtocol>());  // crashed broadcaster
  sim.add_node(std::make_unique<ForgedSend>());
  sim.set_byzantine({2, 3});
  sim.run();
  for (NodeId i = 0; i < 2; ++i) {
    EXPECT_FALSE(sim.node_as<RbcProtocol>(i).instance().delivered());
  }
}

TEST(Rbc, OversizedPayloadRejected) {
  const std::size_t n = 4;
  sim::Simulator sim(test::async_config(n, 13));
  RbcInstance::Config cfg = rbc_cfg(n, 0);
  cfg.max_payload = 4;
  std::vector<std::uint8_t> huge(64, 0xFF);
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<RbcProtocol>(cfg, huge));
  }
  sim.run();
  // The oversized SEND is dropped as malformed everywhere.
  for (NodeId i = 1; i < n; ++i) {
    EXPECT_GT(sim.node_metrics(i).malformed_dropped, 0u);
    EXPECT_FALSE(sim.node_as<RbcProtocol>(i).instance().delivered());
  }
}

TEST(Rbc, MessageCodecRoundTrip) {
  RbcMessage msg(RbcMessage::Kind::kEcho, payload_of(5));
  ByteWriter w;
  msg.serialize(w);
  EXPECT_EQ(w.size(), msg.wire_size());
  ByteReader r(w.data());
  auto decoded = RbcMessage::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(decoded->kind(), RbcMessage::Kind::kEcho);
  EXPECT_EQ(decoded->payload(), payload_of(5));
}

TEST(Rbc, DecodeRejectsBadKind) {
  ByteWriter w;
  w.u8(9);
  w.bytes(payload_of(1));
  ByteReader r(w.data());
  EXPECT_THROW(RbcMessage::decode(r), ProtocolViolation);
}

TEST(Rbc, RequiresSupermajority) {
  EXPECT_THROW(RbcInstance(RbcInstance::Config{3, 1, 0, 0, 16}),
               InternalError);
}

}  // namespace
}  // namespace delphi::rbc
