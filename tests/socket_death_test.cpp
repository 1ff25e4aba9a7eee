/// Abrupt peer death and resource-exhaustion tests for the socket
/// substrates: clean typed errors or recovery, never hangs.
///   * Raw-socket attacks on a live recovery-mode TCP cluster — connections
///     that close mid-hello, reset with SO_LINGER(0), send garbage hellos, or
///     stay half-open must all be rejected/pruned while the legitimate mesh
///     keeps running to completion;
///   * garbage datagrams from an unknown source against a live UDP mesh are
///     dropped without disturbing agreement;
///   * on both substrates, through the shared SocketCluster lifecycle: a
///     node thread that dies surfaces WHICH node failed and WHY (exception
///     text) through failures(), instead of a bare timeout; dead threads
///     make wait() fail fast; and Context::now() counts µs since start();
///   * the UDP unacked-map cap is a typed ResourceExhausted at the send
///     boundary — never a silent drop, also when the send happens inside a
///     message handler — and the failure is attributed to the exhausted
///     node.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sim/byzantine.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace delphi::transport {
namespace {

/// One-byte test message; enough to drive a ping protocol over real sockets.
class ByteMsg final : public net::MessageBody {
 public:
  std::size_t wire_size() const override { return 1; }
  void serialize(ByteWriter& w) const override { w.u8(0x5A); }
};

Decoder byte_decoder() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    DELPHI_REQUIRE(r.u8() == 0x5A, "bad byte message");
    return std::make_shared<ByteMsg>();
  };
}

/// Sends one byte to every peer at start; terminates on the first receipt.
class PingOnce final : public net::Protocol {
 public:
  void on_start(net::Context& ctx) override {
    for (NodeId to = 0; to < ctx.n(); ++to) {
      if (to != ctx.self()) ctx.send(to, 0, std::make_shared<ByteMsg>());
    }
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {
    got_ = true;
  }
  bool terminated() const override { return got_; }

 private:
  bool got_ = false;
};

/// Dies during startup — the thread-death attribution fixture.
class Exploder final : public net::Protocol {
 public:
  void on_start(net::Context&) override {
    throw Error("exploding on purpose (test fixture)");
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return false; }
};

/// Fires `count` sends at node `to` during on_start, then claims done.
class Spammer final : public net::Protocol {
 public:
  Spammer(NodeId to, std::size_t count) : to_(to), count_(count) {}
  void on_start(net::Context& ctx) override {
    for (std::size_t i = 0; i < count_; ++i) {
      ctx.send(to_, 0, std::make_shared<ByteMsg>());
    }
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return true; }

 private:
  NodeId to_;
  std::size_t count_;
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --------------------------------------------------- raw-socket TCP attacks

TEST(AbruptPeerDeath, TcpSurvivesMalformedAndHalfOpenReconnects) {
  // A recovery-mode cluster whose links are delayed by the netem shim, so
  // the protocols are still in flight while we attack the listen ports.
  TcpCluster::Options opts;
  opts.n = 2;
  opts.recovery = true;
  opts.timeout_ms = 20'000;
  opts.netem.lag_k = 1;
  opts.netem.lag_us = 600'000;
  TcpCluster cluster(opts);
  cluster.start([](NodeId) { return std::make_unique<PingOnce>(); },
                byte_decoder());
  sleep_ms(150);  // mesh bring-up done; pings now held by the shim

  for (NodeId victim = 0; victim < 2; ++victim) {
    const std::uint16_t port = cluster.port(victim);
    // (a) EOF before any hello byte.
    ::close(connect_to(port));
    // (b) close mid-hello (3 bytes of a 48-byte recovery hello).
    int fd = connect_to(port);
    const std::uint8_t partial[3] = {0x01, 0x02, 0x03};
    ASSERT_EQ(::send(fd, partial, sizeof(partial), 0), 3);
    ::close(fd);
    // (c) full-size garbage hello (wrong magic, junk tag) — must be
    // rejected by the authenticated handshake.
    fd = connect_to(port);
    std::vector<std::uint8_t> garbage(48, 0xEE);
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    sleep_ms(20);
    ::close(fd);
    // (d) hard RST instead of FIN.
    fd = connect_to(port);
    ASSERT_EQ(::send(fd, partial, sizeof(partial), 0), 3);
    linger lin{1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin)), 0);
    ::close(fd);
    // (e) half-open: connect, send nothing, hold the fd (pruned by the
    // handshake deadline; must not block completion meanwhile).
  }
  const int half_open_a = connect_to(cluster.port(0));
  const int half_open_b = connect_to(cluster.port(1));

  // The legitimate mesh must still deliver the delayed pings and finish.
  EXPECT_TRUE(cluster.wait());
  EXPECT_TRUE(cluster.failures().empty());
  ::close(half_open_a);
  ::close(half_open_b);
}

// ------------------------------------------------------ raw UDP datagrams

TEST(AbruptPeerDeath, UdpDropsDatagramsFromUnknownSources) {
  UdpMesh::Options opts;
  opts.n = 2;
  opts.timeout_ms = 20'000;
  opts.netem.lag_k = 1;
  opts.netem.lag_us = 400'000;
  UdpMesh mesh(opts);
  mesh.start([](NodeId) { return std::make_unique<PingOnce>(); },
             byte_decoder());
  sleep_ms(50);

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  for (NodeId victim = 0; victim < 2; ++victim) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(mesh.port(victim));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    // Truncated, garbage-kind, and oversized-claim datagrams — all from a
    // source port no peer owns, all dropped before they can do harm.
    const std::vector<std::vector<std::uint8_t>> attacks = {
        {}, {0x00}, {0xD7, 0x01}, std::vector<std::uint8_t>(512, 0xAB)};
    for (const auto& a : attacks) {
      ::sendto(fd, a.data(), a.size(), 0, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr));
    }
  }
  ::close(fd);

  EXPECT_TRUE(mesh.wait());
  EXPECT_TRUE(mesh.failures().empty());
}

// ---------------------------------------- shared lifecycle, both substrates

/// Records ctx.now() at on_start, then terminates.
class NowProbe final : public net::Protocol {
 public:
  void on_start(net::Context& ctx) override { started_at = ctx.now(); }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return started_at >= 0; }

  SimTime started_at = -1;
};

class SocketLifecycle : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<SocketCluster> make_cluster(std::size_t n,
                                              std::int64_t timeout_ms) const {
    SocketOptions base;
    base.n = n;
    base.timeout_ms = timeout_ms;
    if (GetParam() == "tcp") {
      TcpCluster::Options opts;
      static_cast<SocketOptions&>(opts) = base;
      return std::make_unique<TcpCluster>(opts);
    }
    UdpMesh::Options opts;
    static_cast<SocketOptions&>(opts) = base;
    return std::make_unique<UdpMesh>(opts);
  }
};

TEST_P(SocketLifecycle, NamesTheDeadNodeAndCause) {
  const auto cluster = make_cluster(4, 1'000);
  cluster->start(
      [](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 3) return std::make_unique<Exploder>();
        return std::make_unique<sim::SilentProtocol>();
      },
      byte_decoder());
  EXPECT_FALSE(cluster->wait());
  ASSERT_EQ(cluster->failures().size(), 1u);
  EXPECT_EQ(cluster->failures()[0].id, 3u);
  EXPECT_NE(cluster->failures()[0].message.find("exploding on purpose"),
            std::string::npos)
      << cluster->failures()[0].message;
  // The dead node is also an unfinished straggler — failures() explains it.
  ASSERT_EQ(cluster->unfinished().size(), 1u);
  EXPECT_EQ(cluster->unfinished()[0], 3u);
}

TEST_P(SocketLifecycle, DeadNodeThreadsFailFastInsteadOfSleepingOutDeadline) {
  // Every protocol throws in on_start, so every node thread dies without
  // terminating. wait() must notice the exited threads and return false
  // well before the 30 s deadline — no timer tick, just the done wakeup.
  const auto cluster = make_cluster(3, 30'000);
  const auto t0 = std::chrono::steady_clock::now();
  cluster->start([](NodeId) { return std::make_unique<Exploder>(); },
                 byte_decoder());
  EXPECT_FALSE(cluster->wait());
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(wall.count(), 5'000);
  EXPECT_EQ(cluster->unfinished().size(), 3u);
}

TEST_P(SocketLifecycle, NowCountsMicrosecondsSinceStart) {
  // The simulator's meaning of now(): µs since the run started, not an
  // absolute clock reading.
  const auto cluster = make_cluster(3, 20'000);
  const auto t0 = std::chrono::steady_clock::now();
  cluster->start([](NodeId) { return std::make_unique<NowProbe>(); },
                 byte_decoder());
  ASSERT_TRUE(cluster->wait());
  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  for (NodeId i = 0; i < 3; ++i) {
    const SimTime at =
        dynamic_cast<const NowProbe&>(cluster->protocol(i)).started_at;
    EXPECT_GE(at, 0) << "node " << i;
    EXPECT_LE(at, elapsed_us) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Substrates, SocketLifecycle,
                         ::testing::Values("tcp", "udp"),
                         [](const auto& p) { return p.param; });

// ----------------------------------------------------- UDP unacked-map cap

TEST(NodeFailureSurfacing, UdpUnackedCapIsTypedResourceExhausted) {
  // Node 1 is unreachable (netem partition, never healed), so node 0's
  // selective-repeat unacked map can only grow. The 17th in-flight frame
  // must be a typed ResourceExhausted at the send boundary — attributed to
  // node 0 by failures() — not a silent drop.
  UdpMesh::Options opts;
  opts.n = 2;
  opts.timeout_ms = 1'000;
  opts.max_unacked = 16;
  opts.netem.partition_k = 1;
  opts.netem.heal_us = 1'000'000'000;
  UdpMesh mesh(opts);
  mesh.start(
      [](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 0) return std::make_unique<Spammer>(1, 64);
        return std::make_unique<sim::SilentProtocol>();
      },
      byte_decoder());
  EXPECT_FALSE(mesh.wait());
  ASSERT_EQ(mesh.failures().size(), 1u);
  EXPECT_EQ(mesh.failures()[0].id, 0u);
  EXPECT_NE(mesh.failures()[0].message.find("unacked map"), std::string::npos)
      << mesh.failures()[0].message;
  EXPECT_NE(mesh.failures()[0].message.find("cap"), std::string::npos);
}

TEST(NodeFailureSurfacing, UdpUnackedCapInsideHandlerKillsTheNode) {
  // The same cap hit from inside on_message: node 0 sends itself one
  // message whose handler sprays the unreachable node 1. The handler's
  // ResourceExhausted is a transport failure, not a bad message, so it must
  // kill node 0 and name the cause instead of counting as malformed.
  class SprayOnSelfMessage final : public net::Protocol {
   public:
    void on_start(net::Context& ctx) override {
      ctx.send(ctx.self(), 0, std::make_shared<ByteMsg>());
    }
    void on_message(net::Context& ctx, NodeId, std::uint32_t,
                    const net::MessageBody&) override {
      for (int i = 0; i < 64; ++i) ctx.send(1, 0, std::make_shared<ByteMsg>());
    }
    bool terminated() const override { return false; }
  };
  UdpMesh::Options opts;
  opts.n = 2;
  opts.timeout_ms = 1'000;
  opts.max_unacked = 16;
  opts.netem.partition_k = 1;
  opts.netem.heal_us = 1'000'000'000;
  UdpMesh mesh(opts);
  mesh.start(
      [](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 0) return std::make_unique<SprayOnSelfMessage>();
        return std::make_unique<sim::SilentProtocol>();
      },
      byte_decoder());
  EXPECT_FALSE(mesh.wait());
  ASSERT_EQ(mesh.failures().size(), 1u);
  EXPECT_EQ(mesh.failures()[0].id, 0u);
  EXPECT_NE(mesh.failures()[0].message.find("unacked map"), std::string::npos)
      << mesh.failures()[0].message;
  EXPECT_EQ(mesh.metrics(0).malformed_dropped, 0u);
}

TEST(NodeFailureSurfacing, UdpCapRoomyEnoughForHonestTraffic) {
  // The same spray with a reachable peer and the default cap sails through:
  // acks drain the map, nobody dies.
  UdpMesh::Options opts;
  opts.n = 2;
  opts.timeout_ms = 20'000;
  UdpMesh mesh(opts);
  mesh.start(
      [](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 0) return std::make_unique<Spammer>(1, 64);
        return std::make_unique<sim::SilentProtocol>();
      },
      byte_decoder());
  EXPECT_TRUE(mesh.wait());
  EXPECT_TRUE(mesh.failures().empty());
}

}  // namespace
}  // namespace delphi::transport
