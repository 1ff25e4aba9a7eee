#pragma once
/// The windowed broadcast flood both socket benches run: node 0 broadcasts
/// fixed-size frames under a credit window, every receiver credits each
/// `credit_every`-th frame with its cumulative count, and the run reports
/// delivered frames and the sender's framed bytes. Templated on the cluster
/// (transport::TcpCluster or transport::UdpMesh); each bench picks its own
/// window.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/mux.hpp"
#include "net/protocol.hpp"
#include "scenario/spec.hpp"
#include "transport/socket_node.hpp"

namespace delphi::bench::flood {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Fixed-size opaque payload (channel 0).
class FloodMsg final : public net::MessageBody {
 public:
  explicit FloodMsg(std::size_t size) : size_(size) {}
  std::size_t wire_size() const override { return size_; }
  void serialize(ByteWriter& w) const override {
    for (std::size_t i = 0; i < size_; ++i) {
      w.u8(static_cast<std::uint8_t>(i));
    }
  }

 private:
  std::size_t size_;
};

/// Cumulative-count receiver credit (channel 1).
class CreditMsg final : public net::MessageBody {
 public:
  explicit CreditMsg(std::uint32_t count) : count_(count) {}
  std::uint32_t count() const { return count_; }
  std::size_t wire_size() const override { return 4; }
  void serialize(ByteWriter& w) const override { w.u32(count_); }

 private:
  std::uint32_t count_;
};

constexpr std::uint32_t kDataChannel = 0;
constexpr std::uint32_t kCreditChannel = 1;

/// Flow control: at most `frames` unacked broadcasts in flight, credited
/// every `credit_every` frames.
struct Window {
  std::uint32_t frames;
  std::uint32_t credit_every;
};

inline transport::Decoder decoder() {
  return [](std::uint32_t channel, ByteReader& r) -> net::MessagePtr {
    if (channel == kCreditChannel) return std::make_shared<CreditMsg>(r.u32());
    const std::size_t size = r.remaining();
    r.raw(size);
    return std::make_shared<FloodMsg>(size);
  };
}

/// Node 0: broadcasts `total` payloads, never more than the window ahead of
/// the slowest receiver's credit.
class Sender final : public net::Protocol {
 public:
  Sender(std::uint32_t total, std::size_t payload, Window window)
      : total_(total), payload_(payload), window_(window) {}

  void on_start(net::Context& ctx) override {
    credited_.assign(ctx.n(), 0);
    credited_[ctx.self()] = total_;  // self needs no credit
    pump(ctx);
  }

  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override {
    if (channel != kCreditChannel) return;  // self-delivered data frame
    const auto& c = dynamic_cast<const CreditMsg&>(body);
    if (c.count() > credited_[from]) credited_[from] = c.count();
    pump(ctx);
  }

  bool terminated() const override { return done_; }

 private:
  void pump(net::Context& ctx) {
    std::uint32_t floor = total_;
    for (const std::uint32_t a : credited_) floor = std::min(floor, a);
    while (sent_ < total_ && sent_ - floor < window_.frames) {
      ctx.broadcast(kDataChannel, std::make_shared<FloodMsg>(payload_));
      ++sent_;
    }
    done_ = floor == total_;
  }

  std::uint32_t total_;
  std::size_t payload_;
  Window window_;
  std::uint32_t sent_ = 0;
  std::vector<std::uint32_t> credited_;
  bool done_ = false;
};

class Receiver final : public net::Protocol {
 public:
  Receiver(std::uint32_t total, Window window)
      : total_(total), window_(window) {}

  void on_start(net::Context&) override {}

  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody&) override {
    if (channel != kDataChannel) return;
    ++got_;
    if (got_ % window_.credit_every == 0 || got_ == total_) {
      ctx.send(from, kCreditChannel, std::make_shared<CreditMsg>(got_));
    }
  }

  bool terminated() const override { return got_ >= total_; }

 private:
  std::uint32_t total_;
  Window window_;
  std::uint32_t got_ = 0;
};

struct Result {
  bool ok = false;
  double wall_s = 0.0;
  std::uint64_t frames = 0;  ///< data frames delivered across all receivers
  std::uint64_t bytes = 0;   ///< logical framed bytes the sender sent
};

/// Node i's flood protocol: the sender at 0, receivers elsewhere.
inline net::ProtocolFactory flood_node(std::uint32_t total,
                                       std::size_t payload, Window window) {
  return [=](NodeId i) -> std::unique_ptr<net::Protocol> {
    if (i == 0) return std::make_unique<Sender>(total, payload, window);
    return std::make_unique<Receiver>(total, window);
  };
}

/// Start `factory` on a fresh n-node mesh, wait, and time it; `frames` is
/// what the receivers get in total on success.
template <typename Cluster>
Result run_mesh(std::size_t n, bool auth, const net::ProtocolFactory& factory,
                transport::Decoder dec, std::uint64_t frames) {
  typename Cluster::Options opts;
  opts.n = n;
  opts.auth = auth;
  opts.seed = 42;
  opts.timeout_ms = 120'000;
  Cluster cluster(opts);
  const auto t0 = Clock::now();
  cluster.start(factory, std::move(dec));
  Result res;
  res.ok = cluster.wait();
  res.wall_s = seconds_since(t0);
  if (res.ok) {
    res.frames = frames;
    res.bytes = cluster.metrics(0).bytes_sent;
  }
  return res;
}

/// One flood of `total` broadcasts from node 0.
template <typename Cluster>
Result run(std::size_t n, std::size_t payload, bool auth, std::uint32_t total,
           Window window) {
  return run_mesh<Cluster>(n, auth, flood_node(total, payload, window),
                           decoder(), std::uint64_t{n - 1} * total);
}

/// `instances` concurrent flood sessions over one mesh via SessionMux, each
/// broadcasting `per_instance` frames under its own credit window.
template <typename Cluster>
Result run_mux(std::size_t n, std::size_t payload, bool auth,
               std::uint32_t per_instance, std::uint32_t instances,
               Window window) {
  constexpr std::uint32_t kMuxStride = 1u << 16;
  net::SessionMux::Config c;
  c.expected = instances;
  c.stride = kMuxStride;
  c.mode = net::SessionMux::Mode::kConcurrent;
  const auto node = flood_node(per_instance, payload, window);
  return run_mesh<Cluster>(
      n, auth,
      [=](NodeId i) -> std::unique_ptr<net::Protocol> {
        return std::make_unique<net::SessionMux>(
            c, [=](std::uint32_t) { return node(i); });
      },
      // Wire channels are sid * stride + c behind the mux.
      [inner = decoder()](std::uint32_t channel, ByteReader& r) {
        return inner(channel % kMuxStride, r);
      },
      std::uint64_t{n - 1} * per_instance * instances);
}

/// A registry protocol on a socket substrate, for the benches' scenario
/// sweeps.
inline scenario::ScenarioSpec protocol_spec(const std::string& protocol,
                                            scenario::Substrate substrate,
                                            std::size_t n, bool auth,
                                            std::size_t instances = 1) {
  scenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.substrate = substrate;
  spec.n = n;
  spec.seed = 7;
  spec.instances = instances;  // concurrent feeds over one mesh
  spec.params["auth"] = auth ? 1.0 : 0.0;
  spec.params["timeout-ms"] = 120'000;
  if (protocol == "dolev") spec.params["rounds"] = 6;
  return spec;
}

}  // namespace delphi::bench::flood
