/// Tests for the discrete-event simulator: determinism, the latency models,
/// the bandwidth/CPU cost model, FIFO links, adversaries, and the generic
/// Byzantine strategies.

#include <gtest/gtest.h>

#include "net/message.hpp"
#include "net/protocol.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::sim {
namespace {

/// Tiny numbered message for ordering/traffic tests.
class SeqMessage final : public net::MessageBody {
 public:
  SeqMessage(std::uint32_t seq, std::size_t pad = 0) : seq_(seq), pad_(pad) {}
  std::uint32_t seq() const noexcept { return seq_; }
  std::size_t wire_size() const override {
    return uvarint_size(seq_) + pad_;
  }
  void serialize(ByteWriter& w) const override {
    w.uvarint(seq_);
    for (std::size_t i = 0; i < pad_; ++i) w.u8(0);
  }

 private:
  std::uint32_t seq_;
  std::size_t pad_;
};

/// All nodes fire `count` numbered messages at node 0; node 0 records the
/// delivery order per sender.
class Flood final : public net::Protocol {
 public:
  explicit Flood(std::uint32_t count, std::size_t pad = 0)
      : count_(count), pad_(pad) {}

  void on_start(net::Context& ctx) override {
    if (ctx.self() == 0) return;
    for (std::uint32_t s = 0; s < count_; ++s) {
      ctx.send(0, /*channel=*/0, std::make_shared<SeqMessage>(s, pad_));
    }
    done_ = true;
  }

  void on_message(net::Context&, NodeId from, std::uint32_t,
                  const net::MessageBody& body) override {
    const auto* m = dynamic_cast<const SeqMessage*>(&body);
    DELPHI_REQUIRE(m != nullptr, "flood: foreign message");
    received_[from].push_back(m->seq());
    // Node 0 deliberately never terminates: the simulator then runs to
    // quiescence, delivering every in-flight message.
  }

  bool terminated() const override { return done_; }

  const std::map<NodeId, std::vector<std::uint32_t>>& received() const {
    return received_;
  }

 private:
  std::uint32_t count_;
  std::size_t pad_;
  bool done_ = false;
  std::map<NodeId, std::vector<std::uint32_t>> received_;
};

SimConfig flood_config(std::uint64_t seed, bool fifo, SimTime adversary_delay) {
  SimConfig cfg;
  cfg.n = 5;
  cfg.seed = seed;
  cfg.latency = std::make_shared<UniformLatency>(100, 5'000);
  if (adversary_delay > 0) {
    cfg.adversary = std::make_shared<RandomDelayAdversary>(adversary_delay);
  }
  cfg.fifo_links = fifo;
  return cfg;
}

std::size_t count_inversions(const std::vector<std::uint32_t>& seqs) {
  std::size_t inv = 0;
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] < seqs[i - 1]) ++inv;
  }
  return inv;
}

TEST(Simulator, RunsFloodToQuiescence) {
  SimConfig cfg = flood_config(1, false, 0);
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) {
    sim.add_node(std::make_unique<Flood>(10));
  }
  sim.run();
  const auto& recv = sim.node_as<Flood>(0).received();
  ASSERT_EQ(recv.size(), 4u);  // four senders
  for (const auto& [from, seqs] : recv) EXPECT_EQ(seqs.size(), 10u);
}

TEST(Simulator, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    SimConfig cfg = flood_config(seed, false, 10'000);
    Simulator sim(cfg);
    for (NodeId i = 0; i < cfg.n; ++i) {
      sim.add_node(std::make_unique<Flood>(20));
    }
    sim.run();
    return std::make_pair(sim.node_as<Flood>(0).received(),
                          sim.metrics().total_bytes);
  };
  const auto a = run_once(77);
  const auto b = run_once(77);
  const auto c = run_once(78);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first, c.first);  // different seed, different schedule
}

TEST(Simulator, AdversaryReordersWithoutFifo) {
  SimConfig cfg = flood_config(3, /*fifo=*/false, /*adversary=*/200'000);
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) {
    sim.add_node(std::make_unique<Flood>(50));
  }
  sim.run();
  std::size_t inversions = 0;
  for (const auto& [from, seqs] : sim.node_as<Flood>(0).received()) {
    inversions += count_inversions(seqs);
  }
  EXPECT_GT(inversions, 0u);  // heavy jitter must reorder something
}

TEST(Simulator, FifoLinksRestoreOrder) {
  SimConfig cfg = flood_config(3, /*fifo=*/true, /*adversary=*/200'000);
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) {
    sim.add_node(std::make_unique<Flood>(50));
  }
  sim.run();
  for (const auto& [from, seqs] : sim.node_as<Flood>(0).received()) {
    EXPECT_EQ(count_inversions(seqs), 0u) << "sender " << from;
    EXPECT_EQ(seqs.size(), 50u);  // nothing lost
  }
}

TEST(Simulator, BytesAccountFramesAndTags) {
  SimConfig cfg = flood_config(4, false, 0);
  cfg.auth_channels = true;
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) {
    sim.add_node(std::make_unique<Flood>(1));
  }
  sim.run();
  // 4 senders x 1 message; frame = 4 (len) + 1 (chan) + 1 (seq) + 32 (tag).
  EXPECT_EQ(sim.metrics().total_msgs, 4u);
  EXPECT_EQ(sim.metrics().total_bytes, 4u * (4 + 1 + 1 + 32));
}

TEST(Simulator, AuthTagsCanBeDisabled) {
  SimConfig cfg = flood_config(4, false, 0);
  cfg.auth_channels = false;
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) {
    sim.add_node(std::make_unique<Flood>(1));
  }
  sim.run();
  EXPECT_EQ(sim.metrics().total_bytes, 4u * (4 + 1 + 1));
}

TEST(Simulator, BandwidthSerializationDelaysDelivery) {
  auto completion = [](double bytes_per_us) {
    SimConfig cfg;
    cfg.n = 2;
    cfg.seed = 5;
    cfg.latency = std::make_shared<UniformLatency>(1000, 1000);
    cfg.cost.uplink_bytes_per_us = bytes_per_us;
    Simulator sim(cfg);
    // Node 1 floods node 0 with large frames.
    sim.add_node(std::make_unique<Flood>(0));
    sim.add_node(std::make_unique<Flood>(20, /*pad=*/10'000));
    sim.run();
    return sim.now();
  };
  const SimTime fast = completion(1e6);
  const SimTime slow = completion(10.0);  // 10 B/µs
  EXPECT_GT(slow, 2 * fast);
}

/// Protocol that charges heavy compute per delivery.
class Cruncher final : public net::Protocol {
 public:
  void on_start(net::Context& ctx) override {
    if (ctx.self() == 1) {
      for (int i = 0; i < 10; ++i) {
        ctx.send(0, 0, std::make_shared<SeqMessage>(i));
      }
    }
  }
  void on_message(net::Context& ctx, NodeId from, std::uint32_t,
                  const net::MessageBody&) override {
    ctx.charge_compute(50'000);  // 50 ms of CPU per message
    ++handled_;
    // Ack after crunching so the sender's timeline reflects our busy time.
    if (ctx.self() == 0) ctx.send(from, 1, std::make_shared<SeqMessage>(0));
  }
  // Never terminates: the run drains to quiescence.
  bool terminated() const override { return false; }
  int handled_ = 0;
};

TEST(Simulator, ComputeChargesSerializeOnTheNode) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 6;
  cfg.latency = std::make_shared<UniformLatency>(100, 100);
  Simulator sim(cfg);
  sim.add_node(std::make_unique<Cruncher>());
  sim.add_node(std::make_unique<Cruncher>());
  sim.run();
  // 10 messages x 50 ms serialized on one core >= 500 ms total.
  EXPECT_GE(sim.now(), 10 * 50'000);
  EXPECT_EQ(sim.node_as<Cruncher>(0).handled_, 10);
}

TEST(Latency, UniformBounds) {
  UniformLatency lat(100, 200);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const SimTime d = lat.delay(0, 1, rng);
    EXPECT_GE(d, 100);
    EXPECT_LE(d, 200);
  }
}

TEST(Latency, AwsGeoRegionsAndScale) {
  AwsGeoLatency lat(16);
  Rng rng(2);
  EXPECT_EQ(lat.region_of(0), 0u);
  EXPECT_EQ(lat.region_of(8), 0u);   // round-robin wraps
  EXPECT_EQ(lat.region_of(7), 7u);
  // Same-region (VA-VA): ~1 ms. Cross-Pacific (VA-Singapore): ~110 ms.
  SimTime intra = 0, cross = 0;
  for (int i = 0; i < 200; ++i) {
    intra += lat.delay(0, 8, rng);   // both region 0
    cross += lat.delay(0, 6, rng);   // VA -> Singapore
  }
  EXPECT_LT(intra / 200, 2'000);
  EXPECT_GT(cross / 200, 80'000);
}

TEST(Latency, AwsGeoSymmetricInExpectation) {
  AwsGeoLatency lat(8);
  Rng rng(3);
  SimTime ab = 0, ba = 0;
  for (int i = 0; i < 500; ++i) {
    ab += lat.delay(1, 5, rng);
    ba += lat.delay(5, 1, rng);
  }
  const double ratio = static_cast<double>(ab) / static_cast<double>(ba);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST(Latency, CpsLanIsSubMillisecondScale) {
  CpsLanLatency lat;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const SimTime d = lat.delay(0, 1, rng);
    EXPECT_GE(d, 300);
    EXPECT_LE(d, 1200);
  }
}

TEST(Adversary, TargetedLagHitsOnlyVictims) {
  TargetedLagAdversary adv({2}, 99'000);
  Rng rng(5);
  EXPECT_EQ(adv.extra_delay(0, 1, 0, rng), 0);
  EXPECT_EQ(adv.extra_delay(2, 1, 0, rng), 99'000);
  EXPECT_EQ(adv.extra_delay(1, 2, 0, rng), 99'000);
}

TEST(Byzantine, GarbageSprayDoesNotCrashHonestFlood) {
  SimConfig cfg = flood_config(9, false, 0);
  Simulator sim(cfg);
  sim.add_node(std::make_unique<Flood>(5));
  for (NodeId i = 1; i + 1 < cfg.n; ++i) {
    sim.add_node(std::make_unique<Flood>(5));
  }
  sim.add_node(std::make_unique<GarbageSprayProtocol>());
  sim.set_byzantine({static_cast<NodeId>(cfg.n - 1)});
  sim.run();
  // Node 0 still got everything from the honest senders.
  const auto& recv = sim.node_as<Flood>(0).received();
  for (NodeId j = 1; j + 1 < cfg.n; ++j) {
    ASSERT_TRUE(recv.contains(j));
    EXPECT_EQ(recv.at(j).size(), 5u);
  }
  // And the garbage was counted as dropped, not processed.
  EXPECT_GT(sim.node_metrics(0).malformed_dropped, 0u);
}

TEST(Simulator, TrafficTotalsCountHonestSends) {
  SimConfig cfg = flood_config(10, false, 0);
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) sim.add_node(std::make_unique<Flood>(3));
  // Node 0 never terminates (by design), so the run drains to quiescence.
  EXPECT_FALSE(sim.run());
  EXPECT_EQ(sim.traffic_totals().honest_msgs, 4u * 3u);
}

TEST(Simulator, InFlightOverflowRaisesTypedError) {
  // The engine's arena/heap/uplink growth paths must fail with the typed
  // ResourceExhausted (catchable as delphi::Error), never std::bad_alloc.
  SimConfig cfg = flood_config(12, false, 0);
  cfg.max_in_flight = 16;  // 4 senders x 100 frames blows through this
  Simulator sim(cfg);
  for (NodeId i = 0; i < cfg.n; ++i) {
    sim.add_node(std::make_unique<Flood>(100));
  }
  try {
    sim.run();
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_NE(std::string(e.what()).find("max_in_flight"), std::string::npos);
  }
}

TEST(Simulator, InFlightCapIsValidated) {
  SimConfig cfg;
  cfg.max_in_flight = 0;
  EXPECT_THROW(Simulator{cfg}, ConfigError);
}

TEST(FifoReorderBuffer, FlatRingReleasesInOrderAndDropsDuplicates) {
  net::FifoReorderBuffer<int> buf;
  EXPECT_TRUE(buf.push(2, 102).empty());   // buffered: 0 and 1 missing
  EXPECT_TRUE(buf.push(1, 101).empty());
  EXPECT_FALSE(buf.insert(2, 999));        // in-window duplicate: first wins
  const auto ready = buf.push(0, 100);
  EXPECT_EQ(ready, (std::vector<int>{100, 101, 102}));
  EXPECT_TRUE(buf.push(1, 201).empty());   // stale: already released
  EXPECT_EQ(buf.next_expected(), 3u);
  EXPECT_EQ(buf.pending(), 0u);
}

TEST(FifoReorderBuffer, FarFutureSequencesUseOverflowPath) {
  // A sequence number beyond the bounded flat ring lands in the overflow
  // map, survives the window sliding over it, and still releases in order.
  net::FifoReorderBuffer<int> buf;
  const std::uint64_t far =
      net::FifoReorderBuffer<int>::kMaxRingSlots + 5;
  EXPECT_TRUE(buf.insert(far, 7777));
  EXPECT_EQ(buf.pending(), 1u);
  EXPECT_FALSE(buf.insert(far, 8888));  // duplicate of a far item
  for (std::uint64_t s = 0; s < far; ++s) {
    int* item = nullptr;
    ASSERT_TRUE(buf.insert(s, static_cast<int>(s)));
    item = buf.ready();
    ASSERT_NE(item, nullptr);
    EXPECT_EQ(*item, static_cast<int>(s));
    buf.pop_ready();
  }
  // The far item is now due; the first-received copy survived.
  int* item = buf.ready();
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(*item, 7777);
  buf.pop_ready();
  EXPECT_EQ(buf.ready(), nullptr);
  EXPECT_EQ(buf.next_expected(), far + 1);
  EXPECT_EQ(buf.pending(), 0u);
}

TEST(FifoReorderBuffer, DuplicateOfFarItemRejectedOnceInWindow) {
  net::FifoReorderBuffer<int> buf;
  const std::uint64_t far = net::FifoReorderBuffer<int>::kMaxRingSlots + 1;
  ASSERT_TRUE(buf.insert(far, 1));
  // Advance next_expected so `far` is inside the flat window.
  for (std::uint64_t s = 0; s < far; ++s) {
    ASSERT_TRUE(buf.insert(s, 0));
    ASSERT_NE(buf.ready(), nullptr);
    buf.pop_ready();
  }
  EXPECT_FALSE(buf.insert(far, 2));  // far copy was received first and wins
  int* item = buf.ready();
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(*item, 1);
}

}  // namespace
}  // namespace delphi::sim
