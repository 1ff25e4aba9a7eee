/// Tests for SessionMux: channel windowing, lazy session opening, sequential
/// chaining, concurrent sessions, per-session guarantee preservation (every
/// session's Delphi run keeps eps-agreement and relaxed validity), and a
/// multi-session pipeline over the real TCP transport.

#include <gtest/gtest.h>

#include <algorithm>

#include "delphi/delphi.hpp"
#include "net/mux.hpp"
#include "sim/byzantine.hpp"
#include "transport/decoders.hpp"
#include "transport/tcp.hpp"
#include "tests/test_util.hpp"

namespace delphi::net {
namespace {

protocol::DelphiParams mux_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;
  return p;
}

/// Factory for node i: session sid agrees on readings[sid][i].
SessionMux::SessionFactory delphi_factory(
    std::size_t n, NodeId i,
    const std::vector<std::vector<double>>& readings) {
  return [n, i, &readings](std::uint32_t sid) -> std::unique_ptr<Protocol> {
    protocol::DelphiProtocol::Config c;
    c.n = n;
    c.t = max_faults(n);
    c.params = mux_params();
    return std::make_unique<protocol::DelphiProtocol>(c, readings[sid][i]);
  };
}

/// Per-session honest inputs: session sid clusters around 100*(sid+1).
std::vector<std::vector<double>> make_readings(std::size_t sessions,
                                               std::size_t n,
                                               std::uint64_t seed) {
  std::vector<std::vector<double>> r(sessions, std::vector<double>(n));
  Rng rng(seed);
  for (std::size_t s = 0; s < sessions; ++s) {
    for (auto& v : r[s]) {
      v = 100.0 * (static_cast<double>(s) + 1.0) + rng.uniform(0.0, 5.0);
    }
  }
  return r;
}

/// Context that swallows all traffic — for driving a mux by hand.
class NullCtx final : public Context {
 public:
  NodeId self() const override { return 0; }
  std::size_t n() const override { return 4; }
  SimTime now() const override { return 0; }
  void send(NodeId, std::uint32_t, MessagePtr) override {}
  void broadcast(std::uint32_t, MessagePtr) override {}
  void charge_compute(SimTime) override {}
  Rng& rng() override { return rng_; }

 private:
  Rng rng_{1};
};

/// Terminates on the first delivery; never sends. Lets a test drive session
/// termination order one channel at a time.
class FinishOnMessage final : public Protocol {
 public:
  void on_start(Context&) override {}
  void on_message(Context&, NodeId, std::uint32_t, const MessageBody&) override {
    done_ = true;
  }
  bool terminated() const override { return done_; }

 private:
  bool done_ = false;
};

/// Terminated from birth — a degenerate protocol whose whole run happens
/// inside on_start.
class InstantDone final : public Protocol {
 public:
  void on_start(Context&) override {}
  void on_message(Context&, NodeId, std::uint32_t, const MessageBody&) override {
  }
  bool terminated() const override { return true; }
};

void expect_session_guarantees(
    sim::Simulator& sim, std::size_t sessions,
    const std::vector<std::vector<double>>& readings) {
  const std::size_t n = sim.config().n;
  for (std::uint32_t sid = 0; sid < sessions; ++sid) {
    std::vector<double> outputs;
    for (NodeId i = 0; i < n; ++i) {
      const auto& mux = sim.node_as<SessionMux>(i);
      const auto* s = mux.session(sid);
      ASSERT_NE(s, nullptr) << "session " << sid << " node " << i;
      const auto* vo = dynamic_cast<const ValueOutput*>(s);
      ASSERT_NE(vo, nullptr);
      ASSERT_TRUE(vo->output_value().has_value());
      outputs.push_back(*vo->output_value());
    }
    const auto [mn, mx] =
        std::minmax_element(readings[sid].begin(), readings[sid].end());
    const double relax = std::max(1.0, *mx - *mn);
    EXPECT_LE(test::spread(outputs), 1.0) << "session " << sid;
    for (double o : outputs) {
      EXPECT_GE(o, *mn - relax - 1e-9) << "session " << sid;
      EXPECT_LE(o, *mx + relax + 1e-9) << "session " << sid;
    }
  }
}

// ------------------------------------------------------------- construction

TEST(SessionMux, ConfigValidation) {
  SessionMux::Config c;
  c.expected = 0;
  auto factory = [](std::uint32_t) -> std::unique_ptr<Protocol> {
    return std::make_unique<sim::SilentProtocol>();
  };
  EXPECT_THROW(SessionMux(c, factory), ConfigError);
  c.expected = 1;
  c.stride = 0;
  EXPECT_THROW(SessionMux(c, factory), ConfigError);
  c.stride = 16;
  EXPECT_THROW(SessionMux(c, nullptr), ConfigError);
  EXPECT_NO_THROW(SessionMux(c, factory));
  c.expected = 1u << 17;
  c.stride = 1u << 16;  // 2^33 channels: overflows the u32 channel space
  EXPECT_THROW(SessionMux(c, factory), ConfigError);
}

TEST(SessionMux, RejectsChannelBeyondSessions) {
  SessionMux::Config c;
  c.expected = 2;
  c.stride = 100;
  SessionMux mux(c, [](std::uint32_t) -> std::unique_ptr<Protocol> {
    return std::make_unique<sim::SilentProtocol>();
  });
  NullCtx ctx;
  sim::GarbageMessage g(4);
  EXPECT_THROW(mux.on_message(ctx, 1, /*channel=*/250, g), ProtocolViolation);
}

// ------------------------------------------------------------------- modes

class MuxModes : public ::testing::TestWithParam<SessionMux::Mode> {};

TEST_P(MuxModes, ThreeDelphiSessionsOverOneMesh) {
  const std::size_t n = 4;
  const std::size_t sessions = 3;
  const auto readings = make_readings(sessions, n, 71);

  sim::Simulator sim(test::adversarial_config(n, 71));
  for (NodeId i = 0; i < n; ++i) {
    SessionMux::Config c;
    c.expected = sessions;
    c.mode = GetParam();
    sim.add_node(
        std::make_unique<SessionMux>(c, delphi_factory(n, i, readings)));
  }
  ASSERT_TRUE(sim.run());
  expect_session_guarantees(sim, sessions, readings);
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_EQ(sim.node_as<SessionMux>(i).open_count(), sessions);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MuxModes,
                         ::testing::Values(SessionMux::Mode::kSequential,
                                           SessionMux::Mode::kConcurrent));

TEST(SessionMux, SequentialChainsInOrderLocally) {
  // In sequential mode a node only opens sid+1 once sid terminated locally
  // (or a peer's sid+1 traffic arrives first — lazy open). Either way all
  // sessions finish; spot-check the mux accounting.
  const std::size_t n = 7;
  const std::size_t sessions = 4;
  const auto readings = make_readings(sessions, n, 73);
  sim::Simulator sim(test::async_config(n, 73));
  for (NodeId i = 0; i < n; ++i) {
    SessionMux::Config c;
    c.expected = sessions;
    c.mode = SessionMux::Mode::kSequential;
    sim.add_node(
        std::make_unique<SessionMux>(c, delphi_factory(n, i, readings)));
  }
  ASSERT_TRUE(sim.run());
  expect_session_guarantees(sim, sessions, readings);
}

TEST(SessionMux, ToleratesSilentFaultsAcrossSessions) {
  const std::size_t n = 7;
  const std::size_t t = max_faults(n);
  const std::size_t sessions = 3;
  const auto readings = make_readings(sessions, n, 77);
  const std::set<NodeId> byz = {5, 6};

  sim::Simulator sim(test::adversarial_config(n, 77));
  for (NodeId i = 0; i < n; ++i) {
    if (byz.contains(i)) {
      sim.add_node(std::make_unique<sim::SilentProtocol>());
      continue;
    }
    SessionMux::Config c;
    c.expected = sessions;
    c.mode = SessionMux::Mode::kSequential;
    sim.add_node(
        std::make_unique<SessionMux>(c, delphi_factory(n, i, readings)));
  }
  sim.set_byzantine(byz);
  ASSERT_TRUE(sim.run());
  for (std::uint32_t sid = 0; sid < sessions; ++sid) {
    std::vector<double> outputs;
    for (NodeId i = 0; i < n - t; ++i) {
      const auto* s = sim.node_as<SessionMux>(i).session(sid);
      ASSERT_NE(s, nullptr);
      outputs.push_back(
          *dynamic_cast<const ValueOutput*>(s)->output_value());
    }
    EXPECT_LE(test::spread(outputs), 1.0) << "session " << sid;
  }
}

TEST(SessionMux, SequentialChainSurvivesOutOfOrderTermination) {
  // Regression: a lazily-opened successor (a fast peer ran ahead) terminates
  // BEFORE its predecessor. The chain frontier must (a) not run past the
  // lowest unfinished session when an out-of-order successor finishes, and
  // (b) skip already-finished sessions when the predecessor finally finishes
  // — stopping at the first finished successor would strand everything
  // beyond it and stall the chain forever.
  SessionMux::Config c;
  c.expected = 4;
  c.stride = 100;
  c.mode = SessionMux::Mode::kSequential;
  std::vector<std::uint32_t> opened;
  SessionMux mux(c, [&opened](std::uint32_t sid) -> std::unique_ptr<Protocol> {
    opened.push_back(sid);
    return std::make_unique<FinishOnMessage>();
  });
  NullCtx ctx;
  sim::GarbageMessage g(4);

  mux.on_start(ctx);
  EXPECT_EQ(opened, (std::vector<std::uint32_t>{0}));

  // Session 2 opens lazily off a peer's message and finishes immediately,
  // while sessions 0 and 1 are still running. The frontier is still 0, so
  // nothing new may open — in particular not session 3.
  mux.on_message(ctx, 1, /*channel=*/250, g);
  EXPECT_EQ(opened, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(mux.session(3), nullptr);
  EXPECT_FALSE(mux.terminated());

  // Session 0 finishes: the frontier advances to 1 and opens it. Session 3
  // still waits (the frontier is 1, not yet past the finished 2).
  mux.on_message(ctx, 1, /*channel=*/50, g);
  EXPECT_EQ(opened, (std::vector<std::uint32_t>{0, 2, 1}));
  EXPECT_EQ(mux.session(3), nullptr);

  // Session 1 finishes: the frontier must skip the already-finished 2 and
  // open 3 (the stall in the old chain logic).
  mux.on_message(ctx, 1, /*channel=*/150, g);
  EXPECT_EQ(opened, (std::vector<std::uint32_t>{0, 2, 1, 3}));

  mux.on_message(ctx, 1, /*channel=*/350, g);
  EXPECT_TRUE(mux.terminated());
  EXPECT_EQ(mux.open_count(), 4u);
}

TEST(SessionMux, SequentialChainSettlesInstantlyTerminatedSessions) {
  // Degenerate sessions that are terminated from birth: the whole chain must
  // settle inside on_start without any message traffic.
  SessionMux::Config c;
  c.expected = 5;
  c.stride = 100;
  c.mode = SessionMux::Mode::kSequential;
  SessionMux mux(c, [](std::uint32_t) -> std::unique_ptr<Protocol> {
    return std::make_unique<InstantDone>();
  });
  NullCtx ctx;
  mux.on_start(ctx);
  EXPECT_TRUE(mux.terminated());
  EXPECT_EQ(mux.open_count(), 5u);
}

// ---------------------------------------------------------------- over TCP

TEST(SessionMux, MinutePipelineOverTcp) {
  // The §VI-A deployment shape: one mesh, one agreement per "minute".
  const std::size_t n = 4;
  const std::size_t sessions = 3;
  static std::vector<std::vector<double>> readings;  // outlives the cluster
  readings = make_readings(sessions, n, 79);

  transport::TcpCluster::Options opts;
  opts.n = n;
  opts.timeout_ms = 60'000;
  transport::TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        SessionMux::Config c;
        c.expected = sessions;
        c.mode = SessionMux::Mode::kSequential;
        return std::make_unique<SessionMux>(c, delphi_factory(n, i, readings));
      },
      transport::decoders::delphi());
  ASSERT_TRUE(cluster.wait());

  for (std::uint32_t sid = 0; sid < sessions; ++sid) {
    std::vector<double> outputs;
    for (NodeId i = 0; i < n; ++i) {
      const auto& mux = dynamic_cast<const SessionMux&>(cluster.protocol(i));
      const auto* s = mux.session(sid);
      ASSERT_NE(s, nullptr);
      outputs.push_back(
          *dynamic_cast<const ValueOutput*>(s)->output_value());
    }
    EXPECT_LE(test::spread(outputs), 1.0) << "session " << sid;
  }
}

}  // namespace
}  // namespace delphi::net
