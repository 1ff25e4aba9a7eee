/// Tests for the oracle-network application: the synthetic price feed's
/// statistics (Fig 4 structure), node observations, and the DORA attested
/// output layer (§V): certificate validity, at-most-two-outputs, rounding
/// relaxation.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "oracle/dora.hpp"
#include "oracle/feed.hpp"
#include "sim/byzantine.hpp"
#include "stats/fit.hpp"
#include "stats/summary.hpp"
#include "tests/test_util.hpp"

namespace delphi::oracle {
namespace {

TEST(PriceFeed, SnapshotShapeAndRange) {
  PriceFeed feed(FeedConfig{}, Rng(1));
  const auto prices = feed.next_minute();
  ASSERT_EQ(prices.size(), 10u);
  const auto s = stats::summarize(prices);
  EXPECT_NEAR(s.range(), feed.last_range(), 1e-9);
  EXPECT_NEAR(s.mean, feed.mid(), feed.last_range());
}

TEST(PriceFeed, RangesFollowTheFittedFrechet) {
  // Two weeks of minutes; the realized delta histogram must fit
  // Fréchet(4.41, 29.3) better than Gumbel — exactly Fig 4's finding.
  const auto deltas = range_history(FeedConfig{}, 20'160, /*seed=*/7);
  const auto fits = stats::best_fit(deltas, {"Frechet", "Gumbel"});
  ASSERT_EQ(fits.size(), 2u);
  EXPECT_EQ(fits.front().family, "Frechet");
  const auto* frechet = dynamic_cast<const stats::Frechet*>(fits[0].dist.get());
  ASSERT_NE(frechet, nullptr);
  EXPECT_NEAR(frechet->alpha(), 4.41, 0.5);
  EXPECT_NEAR(frechet->scale(), 29.3, 2.0);
}

TEST(PriceFeed, TailQuantilesMatchPaper) {
  // Paper: delta < 100$ for ~99.2% of minutes; delta < 300$ for ~100%.
  const auto deltas = range_history(FeedConfig{}, 20'160, /*seed=*/8);
  std::size_t below100 = 0, below300 = 0;
  for (double d : deltas) {
    below100 += (d < 100.0);
    below300 += (d < 300.0);
  }
  const double f100 = static_cast<double>(below100) / deltas.size();
  const double f300 = static_cast<double>(below300) / deltas.size();
  EXPECT_GT(f100, 0.97);
  EXPECT_LT(f100, 0.9999);
  EXPECT_GT(f300, 0.999);
}

TEST(PriceFeed, MidPriceWalks) {
  PriceFeed feed(FeedConfig{}, Rng(3));
  const double start = feed.mid();
  for (int i = 0; i < 1000; ++i) feed.next_minute();
  EXPECT_NE(feed.mid(), start);
  EXPECT_GT(feed.mid(), start * 0.5);
  EXPECT_LT(feed.mid(), start * 2.0);
}

TEST(PriceFeed, NodeObservationWithinSnapshot) {
  PriceFeed feed(FeedConfig{}, Rng(4));
  const auto prices = feed.next_minute();
  Rng rng(5);
  for (std::size_t queries : {1u, 3u, 10u}) {
    const double obs = node_observation(prices, queries, rng);
    const auto s = stats::summarize(prices);
    EXPECT_GE(obs, s.min);
    EXPECT_LE(obs, s.max);
  }
}

// -------------------------------------------------------------------- DORA --

class DoraTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 7;
  crypto::KeyStore keys_{0xD0AA, kN};
  crypto::Attestor attestor_{keys_, /*session=*/1};

  DoraProtocol::Config dora_cfg() {
    DoraProtocol::Config c;
    c.delphi.n = kN;
    c.delphi.t = max_faults(kN);
    protocol::DelphiParams p;
    p.space_min = 0.0;
    p.space_max = 100'000.0;
    p.rho0 = 2.0;
    p.eps = 2.0;
    p.delta_max = 512.0;
    c.delphi.params = p;
    c.attestor = &attestor_;
    return c;
  }
};

TEST_F(DoraTest, CertifiedOutputWithValidCertificate) {
  sim::Simulator sim(test::adversarial_config(kN, 61));
  std::vector<double> inputs = {40'000.0, 40'004.0, 40'008.0, 40'002.0,
                                40'006.0, 40'001.0, 40'007.0};
  for (NodeId i = 0; i < kN; ++i) {
    sim.add_node(std::make_unique<DoraProtocol>(dora_cfg(), inputs[i]));
  }
  ASSERT_TRUE(sim.run());

  std::set<double> outputs;
  for (NodeId i = 0; i < kN; ++i) {
    const auto& node = sim.node_as<DoraProtocol>(i);
    const auto v = node.output_value();
    ASSERT_TRUE(v.has_value());
    outputs.insert(*v);
    // Each certificate verifies with threshold t+1.
    EXPECT_TRUE(attestor_.verify(node.certificate(), max_faults(kN) + 1));
    // Certified value is a multiple of eps.
    EXPECT_DOUBLE_EQ(std::fmod(*v, 2.0), 0.0);
  }
  // Paper Table III: Delphi+DORA can certify at most two (adjacent) outputs.
  EXPECT_LE(outputs.size(), 2u);
  if (outputs.size() == 2) {
    EXPECT_NEAR(*outputs.rbegin() - *outputs.begin(), 2.0, 1e-9);
  }
  // Rounding adds at most eps to the validity relaxation.
  const auto s = stats::summarize(inputs);
  const double relax = std::max(2.0, s.range()) + 2.0;
  for (double v : outputs) {
    EXPECT_GE(v, s.min - relax);
    EXPECT_LE(v, s.max + relax);
  }
}

TEST_F(DoraTest, ToleratesCrashFaults) {
  const std::set<NodeId> byz = {5, 6};  // t = 2 at the top ids
  sim::Simulator sim(test::adversarial_config(kN, 62));
  for (NodeId i = 0; i < kN; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
    } else {
      sim.add_node(std::make_unique<DoraProtocol>(dora_cfg(),
                                                  50'000.0 + i * 1.5));
    }
  }
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i < kN; ++i) {
    if (byz.contains(i)) continue;
    EXPECT_TRUE(
        attestor_.verify(sim.node_as<DoraProtocol>(i).certificate(),
                         max_faults(kN) + 1));
  }
}

TEST_F(DoraTest, ForgedSharesNeverCertify) {
  // A Byzantine node spams forged attestation shares for a bogus value; no
  // honest node may ever assemble a certificate for it.
  class Forger final : public net::Protocol {
   public:
    void on_start(net::Context& ctx) override {
      for (int rep = 0; rep < 3; ++rep) {
        ctx.broadcast(0xD0, std::make_shared<AttestMessage>(
                                777'777, crypto::Digest{}));
      }
    }
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return true; }
  };

  sim::Simulator sim(test::adversarial_config(kN, 63));
  for (NodeId i = 0; i + 1 < kN; ++i) {
    sim.add_node(std::make_unique<DoraProtocol>(dora_cfg(),
                                                60'000.0 + i * 1.0));
  }
  sim.add_node(std::make_unique<Forger>());
  sim.set_byzantine({static_cast<NodeId>(kN - 1)});
  ASSERT_TRUE(sim.run());
  for (NodeId i = 0; i + 1 < kN; ++i) {
    const auto v = sim.node_as<DoraProtocol>(i).output_value();
    ASSERT_TRUE(v.has_value());
    EXPECT_NE(*v, 777'777.0 * 2.0);
    EXPECT_NEAR(*v, 60'000.0, 600.0);
  }
}

TEST(DoraMessage, CodecRoundTrip) {
  crypto::Digest tag{};
  tag[0] = 0xAA;
  tag[31] = 0x55;
  AttestMessage msg(-12345, tag);
  ByteWriter w;
  msg.serialize(w);
  EXPECT_EQ(w.size(), msg.wire_size());
  ByteReader r(w.data());
  auto d = AttestMessage::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(d->value_index(), -12345);
  EXPECT_EQ(d->tag(), tag);
}

}  // namespace
}  // namespace delphi::oracle
