/// Tests for the MMR-style asynchronous binary agreement: Validity,
/// Agreement, Termination across sizes/seeds/input patterns, under crash and
/// garbage adversaries, plus the compute-charge hook used to model threshold
/// coins.

#include <gtest/gtest.h>

#include "aba/aba.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::aba {
namespace {

AbaInstance::Config aba_cfg(std::size_t n, const crypto::CommonCoin* coin,
                            std::uint64_t instance = 1) {
  AbaInstance::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.instance_id = instance;
  c.coin = coin;
  return c;
}

struct AbaParam {
  std::size_t n;
  std::uint64_t seed;
  int pattern;  // 0: all zero, 1: all one, 2: split by parity, 3: one dissent
};

class AbaSweep : public ::testing::TestWithParam<AbaParam> {};

TEST_P(AbaSweep, AgreementValidityTermination) {
  const auto [n, seed, pattern] = GetParam();
  crypto::CommonCoin coin(seed * 31 + 7);
  sim::Simulator sim(test::adversarial_config(n, seed));
  std::vector<bool> inputs(n);
  for (NodeId i = 0; i < n; ++i) {
    switch (pattern) {
      case 0: inputs[i] = false; break;
      case 1: inputs[i] = true; break;
      case 2: inputs[i] = (i % 2 == 1); break;
      default: inputs[i] = (i == 0); break;
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<AbaProtocol>(aba_cfg(n, &coin), inputs[i]));
  }
  ASSERT_TRUE(sim.run()) << "ABA did not terminate";

  // Agreement: all honest decisions equal.
  const bool d0 = sim.node_as<AbaProtocol>(0).instance().decision();
  bool some_input_matches = false;
  for (NodeId i = 0; i < n; ++i) {
    const auto& inst = sim.node_as<AbaProtocol>(i).instance();
    ASSERT_TRUE(inst.decided());
    EXPECT_EQ(inst.decision(), d0);
    some_input_matches |= (inputs[i] == d0);
  }
  // Validity: the decision was somebody's input.
  EXPECT_TRUE(some_input_matches);
  // Strong unanimity check: unanimous input forces that decision.
  if (pattern == 0) {
    EXPECT_FALSE(d0);
  }
  if (pattern == 1) {
    EXPECT_TRUE(d0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AbaSweep,
    ::testing::Values(AbaParam{4, 1, 0}, AbaParam{4, 2, 1}, AbaParam{4, 3, 2},
                      AbaParam{4, 4, 3}, AbaParam{7, 5, 2}, AbaParam{7, 6, 3},
                      AbaParam{7, 7, 0}, AbaParam{10, 8, 2},
                      AbaParam{13, 9, 2}, AbaParam{13, 10, 3},
                      AbaParam{16, 11, 2}),
    [](const auto& test_info) {
      return "n" + std::to_string(test_info.param.n) + "_s" +
             std::to_string(test_info.param.seed) + "_p" +
             std::to_string(test_info.param.pattern);
    });

TEST(Aba, ToleratesCrashFaults) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t n = 7;
    crypto::CommonCoin coin(seed);
    const std::set<NodeId> byz = {5, 6};  // t = 2 at the top ids
    sim::Simulator sim(test::adversarial_config(n, seed));
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) {
        sim.add_node(std::make_unique<sim::SilentProtocol>());
      } else {
        sim.add_node(std::make_unique<AbaProtocol>(aba_cfg(n, &coin),
                                                   i % 2 == 0));
      }
    }
    sim.set_byzantine(byz);
    ASSERT_TRUE(sim.run()) << "seed " << seed;
    std::optional<bool> first;
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) continue;
      const auto& inst = sim.node_as<AbaProtocol>(i).instance();
      ASSERT_TRUE(inst.decided());
      if (!first) first = inst.decision();
      EXPECT_EQ(inst.decision(), *first) << "seed " << seed;
    }
  }
}

TEST(Aba, ToleratesGarbageSprayers) {
  const std::size_t n = 7;
  crypto::CommonCoin coin(5);
  sim::Simulator sim(test::async_config(n, 21));
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(std::make_unique<AbaProtocol>(aba_cfg(n, &coin), true));
  }
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 2 < n; ++i) {
    EXPECT_TRUE(sim.node_as<AbaProtocol>(i).instance().decision());
  }
}

TEST(Aba, CoinComputeChargedToRuntime) {
  // With an expensive coin the run must take at least one coin's time.
  auto run_with_cost = [](SimTime coin_us) {
    const std::size_t n = 4;
    crypto::CommonCoin coin(9);
    sim::SimConfig cfg = test::async_config(n, 31);
    sim::Simulator sim(cfg);
    for (NodeId i = 0; i < n; ++i) {
      auto c = aba_cfg(n, &coin);
      c.coin_compute_us = coin_us;
      sim.add_node(std::make_unique<AbaProtocol>(c, i % 2 == 0));
    }
    sim.run();
    return sim.now();
  };
  const SimTime cheap = run_with_cost(0);
  const SimTime pricey = run_with_cost(500'000);
  EXPECT_GT(pricey, cheap + 400'000);
}

TEST(Aba, DistinctInstancesUseDistinctCoins) {
  crypto::CommonCoin coin(77);
  bool all_same = true;
  for (std::uint64_t inst = 1; inst < 30; ++inst) {
    if (coin.toss(inst, 1) != coin.toss(0, 1)) all_same = false;
  }
  EXPECT_FALSE(all_same);
}

TEST(Aba, MessageCodecRoundTrip) {
  for (auto kind : {AbaMessage::Kind::kBval, AbaMessage::Kind::kAux,
                    AbaMessage::Kind::kFinish}) {
    AbaMessage msg(kind, 3, true);
    ByteWriter w;
    msg.serialize(w);
    EXPECT_EQ(w.size(), msg.wire_size());
    ByteReader r(w.data());
    auto decoded = AbaMessage::decode(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(decoded->kind(), kind);
    EXPECT_EQ(decoded->round(), 3u);
    EXPECT_TRUE(decoded->value());
  }
}

TEST(Aba, DecodeRejectsNonBinaryValue) {
  ByteWriter w;
  w.u8(0);
  w.uvarint(1);
  w.u8(7);
  ByteReader r(w.data());
  EXPECT_THROW(AbaMessage::decode(r), ProtocolViolation);
}

TEST(Aba, ConfigRequiresCoinAndSupermajority) {
  crypto::CommonCoin coin(1);
  EXPECT_THROW(AbaInstance(AbaInstance::Config{6, 2, 0, 0, &coin, 0, 64}),
               InternalError);
  EXPECT_THROW(AbaInstance(AbaInstance::Config{4, 1, 0, 0, nullptr, 0, 64}),
               InternalError);
}

}  // namespace
}  // namespace delphi::aba
