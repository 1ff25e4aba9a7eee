/// Microbenchmarks (google-benchmark) for the hot primitives underneath the
/// protocol stack: SHA-256 / HMAC throughput (authenticated channels),
/// serialization, the BinAA state machine, and raw simulator event
/// throughput. These bound how large an n the repo's experiments can drive.

#include <benchmark/benchmark.h>

#include "binaa/core.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "delphi/message.hpp"
#include "net/protocol.hpp"
#include "sim/simulator.hpp"
#include "transport/frame.hpp"

namespace {

using namespace delphi;

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

/// The pre-PR-5 per-frame MAC cost: a full HMAC key schedule (ipad/opad
/// absorption) on every tag — what the TCP data plane used to pay per frame.
void BM_HmacSha256(benchmark::State& state) {
  crypto::Key key{};
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0xCD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

/// The post-PR-5 per-frame MAC cost: tag from precomputed ipad/opad
/// midstates (crypto::HmacKey) — two compression finishes per tag. The
/// BM_HmacSha256 / BM_HmacKeyTag ratio is the per-frame HMAC win the TCP
/// data plane keeps per established link.
void BM_HmacKeyTag(benchmark::State& state) {
  crypto::Key key{};
  const crypto::HmacKey hk(key);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0xCD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hk.tag(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacKeyTag)->Arg(64)->Arg(1024);

/// Authenticated frame encode (unicast path): shared body + per-link tag.
void BM_FrameEncode(benchmark::State& state) {
  crypto::Key key{};
  const crypto::HmacKey hk(key);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)),
                                    0xEE);
  for (auto _ : state) {
    const auto body = transport::encode_frame_body(5, payload, true);
    benchmark::DoNotOptimize(transport::frame_tag(hk, *body));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameEncode)->Arg(64)->Arg(1024);

/// Authenticated frame decode + MAC verify through the incremental parser
/// (zero-copy next_view, pooled buffer — the TCP receive path per frame).
void BM_FrameDecode(benchmark::State& state) {
  crypto::Key key{};
  const crypto::HmacKey hk(key);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)),
                                    0xEE);
  const auto frame = transport::encode_frame(5, payload, &hk);
  transport::FrameParser parser(&hk);
  for (auto _ : state) {
    parser.feed(frame);
    benchmark::DoNotOptimize(parser.next_view());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_FrameDecode)->Arg(64)->Arg(1024);

void BM_BundleSerialize(benchmark::State& state) {
  std::vector<protocol::ExplicitEcho> ex;
  for (std::int64_t k = 0; k < state.range(0); ++k) {
    ex.push_back(protocol::ExplicitEcho{0, 20'000 + k, 1, 7, 1 << 20});
  }
  protocol::DelphiBundle bundle({{0, 1, 7, 0}}, ex);
  for (auto _ : state) {
    ByteWriter w(bundle.wire_size());
    bundle.serialize(w);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_BundleSerialize)->Arg(8)->Arg(64);

void BM_BundleDecode(benchmark::State& state) {
  std::vector<protocol::ExplicitEcho> ex;
  for (std::int64_t k = 0; k < state.range(0); ++k) {
    ex.push_back(protocol::ExplicitEcho{0, 20'000 + k, 1, 7, 1 << 20});
  }
  protocol::DelphiBundle bundle({{0, 1, 7, 0}}, ex);
  ByteWriter w;
  bundle.serialize(w);
  for (auto _ : state) {
    ByteReader r(w.data());
    benchmark::DoNotOptimize(protocol::DelphiBundle::decode(r));
  }
}
BENCHMARK(BM_BundleDecode)->Arg(8)->Arg(64);

void BM_BinAaRound(benchmark::State& state) {
  // One full quorum wave through a BinAA core: n echoes + triggers.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    binaa::BinAaCore core(binaa::BinAaCore::Config{n, (n - 1) / 3, 10});
    std::vector<binaa::EchoAction> out;
    core.start(true, out);
    for (NodeId j = 0; j < n; ++j) {
      core.on_echo(1, 1, core.scale(), j, out);
      core.on_echo(2, 1, core.scale(), j, out);
    }
    benchmark::DoNotOptimize(core.current_round());
  }
}
BENCHMARK(BM_BinAaRound)->Arg(16)->Arg(64)->Arg(160);

/// Raw simulator throughput: a ping-pong pair exchanging K messages.
class PingPong final : public net::Protocol {
 public:
  explicit PingPong(int budget) : budget_(budget) {}
  void on_start(net::Context& ctx) override {
    if (ctx.self() == 0) send(ctx, 1);
  }
  void on_message(net::Context& ctx, NodeId from, std::uint32_t,
                  const net::MessageBody&) override {
    if (budget_-- > 0) send(ctx, from);
  }
  bool terminated() const override { return budget_ <= 0; }

 private:
  class Ping final : public net::MessageBody {
   public:
    std::size_t wire_size() const override { return 1; }
    void serialize(ByteWriter& w) const override { w.u8(0); }
  };
  void send(net::Context& ctx, NodeId to) {
    ctx.send(to, 0, std::make_shared<Ping>());
  }
  int budget_;
};

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.n = 2;
    cfg.seed = 1;
    cfg.latency = std::make_shared<sim::UniformLatency>(10, 20);
    sim::Simulator sim(cfg);
    sim.add_node(std::make_unique<PingPong>(5'000));
    sim.add_node(std::make_unique<PingPong>(5'000));
    sim.run();
    benchmark::DoNotOptimize(sim.metrics().events_processed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_SimulatorEvents);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

}  // namespace

BENCHMARK_MAIN();
