/// Tests for the DORA (Chakka et al.) baseline: agreement via the SMR
/// channel, exact convex validity of the median, signature verification
/// paths, and tolerance to crashed oracles.

#include <gtest/gtest.h>

#include <algorithm>

#include "oracle/dora_baseline.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::oracle {
namespace {

struct Deployment {
  std::size_t n;                       // oracles; process n is the SMR
  crypto::KeyStore keys;
  crypto::Attestor attestor;
  DoraBaselineConfig cfg;

  explicit Deployment(std::size_t oracles)
      : n(oracles), keys(0x5EED + oracles, oracles), attestor(keys, 1) {
    cfg.n = oracles;
    cfg.t = max_faults(oracles);
    cfg.attestor = &attestor;
  }
};

TEST(DoraBaseline, AgreementAndConvexValidity) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Deployment dep(7);
    std::vector<double> inputs(dep.n);
    Rng rng(seed);
    for (auto& v : inputs) v = 40'000.0 + rng.uniform(-20.0, 20.0);

    sim::Simulator sim(test::adversarial_config(dep.n + 1, seed));
    for (NodeId i = 0; i < dep.n; ++i) {
      sim.add_node(std::make_unique<DoraBaselineOracle>(dep.cfg, inputs[i]));
    }
    sim.add_node(std::make_unique<SmrSequencer>(dep.cfg));
    ASSERT_TRUE(sim.run()) << "seed " << seed;

    const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
    std::optional<double> first;
    for (NodeId i = 0; i < dep.n; ++i) {
      const auto v = sim.node_as<DoraBaselineOracle>(i).output_value();
      ASSERT_TRUE(v.has_value());
      if (!first) first = *v;
      EXPECT_EQ(*v, *first) << "seed " << seed;  // SMR gives exact agreement
      EXPECT_GE(*v, *mn);
      EXPECT_LE(*v, *mx);
    }
  }
}

TEST(DoraBaseline, ToleratesCrashedOracles) {
  Deployment dep(7);
  const std::set<NodeId> byz = {5, 6};  // t = 2 at the top oracle ids
  sim::Simulator sim(test::adversarial_config(dep.n + 1, 9));
  std::vector<double> honest_inputs;
  for (NodeId i = 0; i < dep.n; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
    } else {
      const double v = 100.0 + i;
      honest_inputs.push_back(v);
      sim.add_node(std::make_unique<DoraBaselineOracle>(dep.cfg, v));
    }
  }
  sim.add_node(std::make_unique<SmrSequencer>(dep.cfg));
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i < dep.n; ++i) {
    if (byz.contains(i)) continue;
    const auto v = sim.node_as<DoraBaselineOracle>(i).output_value();
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, honest_inputs.front());
    EXPECT_LE(*v, honest_inputs.back());
  }
}

TEST(DoraBaseline, ForgedSignaturesNeverCounted) {
  // A Byzantine oracle broadcasts values with zeroed tags: they are dropped
  // on verification, and the run still completes among the honest.
  class Forger final : public net::Protocol {
   public:
    explicit Forger(std::size_t n) : n_(n) {}
    void on_start(net::Context& ctx) override {
      for (NodeId to = 0; to < n_; ++to) {
        ctx.send(to, DoraBaselineConfig::kSignedChannel,
                 std::make_shared<SignedValueMessage>(1e9, crypto::Digest{}));
      }
    }
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return true; }

   private:
    std::size_t n_;
  };

  Deployment dep(7);
  sim::Simulator sim(test::adversarial_config(dep.n + 1, 12));
  for (NodeId i = 0; i + 1 < dep.n; ++i) {
    sim.add_node(
        std::make_unique<DoraBaselineOracle>(dep.cfg, 500.0 + i * 0.5));
  }
  sim.add_node(std::make_unique<Forger>(dep.n));
  sim.add_node(std::make_unique<SmrSequencer>(dep.cfg));
  sim.set_byzantine({static_cast<NodeId>(dep.n - 1)});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 1 < dep.n; ++i) {
    const auto v = sim.node_as<DoraBaselineOracle>(i).output_value();
    ASSERT_TRUE(v.has_value());
    EXPECT_LT(*v, 1e8);  // the forged 1e9 never entered any median
    EXPECT_GE(*v, 500.0);
    EXPECT_LE(*v, 503.0);
  }
}

TEST(DoraBaseline, MessageCodecsRoundTrip) {
  crypto::Digest tag{};
  tag[5] = 0x42;
  SignedValueMessage sv(40'123.5, tag);
  ByteWriter w1;
  sv.serialize(w1);
  EXPECT_EQ(w1.size(), sv.wire_size());
  ByteReader r1(w1.data());
  auto d1 = SignedValueMessage::decode(r1);
  EXPECT_TRUE(r1.exhausted());
  EXPECT_EQ(d1->value(), 40'123.5);
  EXPECT_EQ(d1->tag(), tag);

  ValueListMessage list({{0, 1.5, tag}, {3, -2.25, tag}});
  ByteWriter w2;
  list.serialize(w2);
  EXPECT_EQ(w2.size(), list.wire_size());
  ByteReader r2(w2.data());
  auto d2 = ValueListMessage::decode(r2);
  EXPECT_TRUE(r2.exhausted());
  ASSERT_EQ(d2->entries().size(), 2u);
  EXPECT_EQ(d2->entries()[1].signer, 3u);
  EXPECT_EQ(d2->entries()[1].value, -2.25);
}

TEST(DoraBaseline, CheaperThanDelphiInRoundsButSignatureBound) {
  // Sanity of the Table III trade-off: DORA terminates in ~3 one-way hops
  // (far fewer than Delphi's r_M rounds) but burns O(n) verifications per
  // node — visible as charged CPU when verification is expensive.
  Deployment dep(7);
  auto run_with_cost = [&](SimTime verify_us) {
    DoraBaselineConfig cfg = dep.cfg;
    cfg.verify_compute_us = verify_us;
    sim::SimConfig net = test::async_config(dep.n + 1, 31);
    sim::Simulator sim(net);
    for (NodeId i = 0; i < dep.n; ++i) {
      sim.add_node(std::make_unique<DoraBaselineOracle>(cfg, 10.0 + i));
    }
    sim.add_node(std::make_unique<SmrSequencer>(cfg));
    EXPECT_TRUE(sim.run());
    return sim.metrics().honest_completion;
  };
  const auto cheap = run_with_cost(0);
  const auto pricey = run_with_cost(100'000);  // 100 ms per verification
  EXPECT_GT(pricey, cheap + 5 * 100'000);      // >= n-t serialized verifies
}

}  // namespace
}  // namespace delphi::oracle
