/// Real-socket UDP datagram-plane throughput — the substrate the in-process
/// netem shim was built for. Three sections:
///
///   1. Datagram flood: a windowed credit protocol saturates the
///      authenticated UDP mesh with fixed-size broadcast frames (each event
///      loop step packs the frames queued for a link into one datagram,
///      which also carries that link's ack; selective-repeat ARQ over
///      datagrams underneath) and measures delivered frames/s and MB/s
///      (payload size x auth on/off x n).
///   2. Multi-instance flood: the same flood split across k concurrent
///      SessionMux instances over one datagram mesh (instances in {1,2,4,8})
///      — the udp counterpart of bench_tcp_throughput's instances axis.
///   3. Scenario sweep: protocol x auth x instances through
///      ScenarioSpec/UdpRuntime on a clean localhost link — the end-to-end
///      numbers every future UDP scenario inherits.
///   4. Loss sweep: rbc and dolev at 0 / 1% / 5% shim loss — the ARQ
///      recovery price in wall-clock time and retransmit-free logical
///      traffic (honest bytes count logical sends only, so the MB column
///      stays flat while runtime grows).
///
/// Emitted through bench/run_all.sh as BENCH_udp.json so the datagram axis
/// cannot rot invisibly.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "net/mux.hpp"
#include "transport/udp.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- flood suite

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
  std::string debug() const override { return "flood"; }

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
  std::string debug() const override { return "credit"; }

 private:
  std::uint32_t count_;
};

constexpr std::uint32_t kDataChannel = 0;
constexpr std::uint32_t kCreditChannel = 1;
/// Max unacked broadcasts in flight (smaller than the TCP bench's window).
/// The transport packs whatever is queued into datagrams and holds each
/// link's unacked datagrams under a share of the receiver's socket buffer,
/// so this window sets how much a step can pack, not whether frames drop.
constexpr std::uint32_t kWindow = 128;
constexpr std::uint32_t kCreditEvery = 32;

transport::Decoder flood_decoder() {
  return [](std::uint32_t channel, ByteReader& r) -> net::MessagePtr {
    if (channel == kCreditChannel) return std::make_shared<CreditMsg>(r.u32());
    const std::size_t size = r.remaining();
    r.raw(size);
    return std::make_shared<FloodMsg>(size);
  };
}

/// Node 0 broadcasts `total` payloads under a credit window; every receiver
/// credits each kCreditEvery-th frame with its cumulative count.
class FloodSender final : public net::Protocol {
 public:
  FloodSender(std::uint32_t total, std::size_t payload)
      : total_(total), payload_(payload) {}

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
    while (sent_ < total_ && sent_ - floor < kWindow) {
      ctx.broadcast(kDataChannel, std::make_shared<FloodMsg>(payload_));
      ++sent_;
    }
    done_ = floor == total_;
  }

  std::uint32_t total_;
  std::size_t payload_;
  std::uint32_t sent_ = 0;
  std::vector<std::uint32_t> credited_;
  bool done_ = false;
};

class FloodReceiver final : public net::Protocol {
 public:
  explicit FloodReceiver(std::uint32_t total) : total_(total) {}

  void on_start(net::Context&) override {}

  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody&) override {
    if (channel != kDataChannel) return;
    ++got_;
    if (got_ % kCreditEvery == 0 || got_ == total_) {
      ctx.send(from, kCreditChannel, std::make_shared<CreditMsg>(got_));
    }
  }

  bool terminated() const override { return got_ >= total_; }

 private:
  std::uint32_t total_;
  std::uint32_t got_ = 0;
};

struct FloodResult {
  bool ok = false;
  double wall_s = 0.0;
  std::uint64_t frames = 0;  ///< data frames delivered across all receivers
  std::uint64_t bytes = 0;   ///< logical framed bytes the sender sent
};

FloodResult run_flood(std::size_t n, std::size_t payload, bool auth,
                      std::uint32_t total) {
  transport::UdpMesh::Options opts;
  opts.n = n;
  opts.auth = auth;
  opts.seed = 42;
  opts.timeout_ms = 120'000;
  transport::UdpMesh mesh(opts);
  const auto t0 = Clock::now();
  mesh.start(
      [&](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 0) return std::make_unique<FloodSender>(total, payload);
        return std::make_unique<FloodReceiver>(total);
      },
      flood_decoder());
  FloodResult res;
  res.ok = mesh.wait();
  res.wall_s = seconds_since(t0);
  if (res.ok) {
    res.frames = static_cast<std::uint64_t>(n - 1) * total;
    res.bytes = mesh.metrics(0).bytes_sent;
  }
  return res;
}

// ------------------------------------------------- multi-instance flood

constexpr std::uint32_t kMuxStride = 1u << 16;

/// The flood decoder behind a mux: wire channels are sid*stride + c.
transport::Decoder mux_flood_decoder() {
  const auto inner = flood_decoder();
  return [inner](std::uint32_t channel, ByteReader& r) {
    return inner(channel % kMuxStride, r);
  };
}

/// `instances` concurrent flood sessions over one datagram mesh via
/// SessionMux, each broadcasting `per_instance` frames under its own credit
/// window (so total in-flight frames scale with the instance count, and the
/// instances' frames share each link's datagrams).
FloodResult run_mux_flood(std::size_t n, std::size_t payload, bool auth,
                          std::uint32_t per_instance,
                          std::uint32_t instances) {
  transport::UdpMesh::Options opts;
  opts.n = n;
  opts.auth = auth;
  opts.seed = 42;
  opts.timeout_ms = 120'000;
  transport::UdpMesh mesh(opts);
  const auto t0 = Clock::now();
  mesh.start(
      [&](NodeId i) -> std::unique_ptr<net::Protocol> {
        net::SessionMux::Config c;
        c.expected = instances;
        c.stride = kMuxStride;
        c.mode = net::SessionMux::Mode::kConcurrent;
        return std::make_unique<net::SessionMux>(
            c, [i, per_instance, payload](std::uint32_t)
                   -> std::unique_ptr<net::Protocol> {
              if (i == 0) {
                return std::make_unique<FloodSender>(per_instance, payload);
              }
              return std::make_unique<FloodReceiver>(per_instance);
            });
      },
      mux_flood_decoder());
  FloodResult res;
  res.ok = mesh.wait();
  res.wall_s = seconds_since(t0);
  if (res.ok) {
    res.frames =
        static_cast<std::uint64_t>(n - 1) * per_instance * instances;
    res.bytes = mesh.metrics(0).bytes_sent;
  }
  return res;
}

// ---------------------------------------------------------- scenario suite

scenario::ScenarioSpec protocol_spec(const std::string& protocol,
                                     std::size_t n, bool auth,
                                     std::size_t instances = 1) {
  scenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.substrate = scenario::Substrate::kUdp;
  spec.n = n;
  spec.seed = 7;
  spec.instances = instances;
  spec.params["auth"] = auth ? 1.0 : 0.0;
  spec.params["timeout-ms"] = 120'000;
  if (protocol == "dolev") spec.params["rounds"] = 6;
  if (protocol == "rbc") spec.params["fifo"] = 0;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("UDP datagram-plane throughput (real localhost sockets)",
              "Flood: windowed broadcast, the frames queued for a link "
              "packed into one datagram per loop step over selective-repeat "
              "ARQ (single- and multi-instance over one mesh); sweeps "
              "through ScenarioSpec/UdpRuntime, with and without shim "
              "loss.");

  int failures = 0;

  // ---- datagram flood ---------------------------------------------------
  std::printf("\n-- datagram flood (node 0 broadcasts, %u-frame window) --\n",
              kWindow);
  const std::vector<int> fw = {6, 10, 6, 10, 10, 12, 10};
  print_row({"n", "payload", "auth", "frames", "wall s", "frames/s", "MB/s"},
            fw);
  struct FloodCase {
    std::size_t n;
    std::size_t payload;
    bool auth;
  };
  const std::vector<FloodCase> cases = {
      {2, 64, true},   {2, 64, false}, {2, 1024, true},
      {4, 64, true},   {4, 64, false}, {4, 1024, true},
  };
  for (const auto& c : cases) {
    const std::uint32_t total = quick ? 10'000 : 40'000;
    const auto r = run_flood(c.n, c.payload, c.auth, total);
    if (!r.ok) ++failures;
    const double fps = r.ok ? static_cast<double>(r.frames) / r.wall_s : 0.0;
    const double mbs =
        r.ok ? static_cast<double>(r.bytes) / (1e6 * r.wall_s) : 0.0;
    print_row({std::to_string(c.n), std::to_string(c.payload),
               c.auth ? "on" : "off", fmt_int(r.frames), fmt(r.wall_s, 3),
               fmt_int(static_cast<std::uint64_t>(fps)), fmt(mbs, 1)},
              fw);
  }

  // ---- multi-instance flood --------------------------------------------
  // The datagram counterpart of bench_tcp_throughput's instances axis: k
  // concurrent feeds over one UDP mesh, total frames held constant across
  // the axis so rows are directly comparable.
  std::printf("\n-- multi-instance flood (64 B, auth on, SessionMux over one "
              "mesh, n=4) --\n");
  const std::vector<int> mw = {10, 10, 10, 12, 10};
  print_row({"instances", "frames", "wall s", "frames/s", "vs x1"}, mw);
  {
    const std::uint32_t total = quick ? 8'000 : 24'000;
    double base_fps = 0.0;
    for (const std::uint32_t instances : {1u, 2u, 4u, 8u}) {
      const auto r = run_mux_flood(4, 64, true, total / instances, instances);
      if (!r.ok) ++failures;
      const double fps = r.ok ? static_cast<double>(r.frames) / r.wall_s : 0.0;
      if (instances == 1) base_fps = fps;
      print_row({std::to_string(instances), fmt_int(r.frames),
                 fmt(r.wall_s, 3), fmt_int(static_cast<std::uint64_t>(fps)),
                 base_fps > 0.0 ? fmt(fps / base_fps, 2) + "x" : "-"},
                mw);
    }
  }

  // ---- protocol sweep ---------------------------------------------------
  std::printf("\n-- protocol sweep over UdpRuntime --\n");
  const std::vector<int> sw = {10, 6, 6, 6, 12, 10, 12, 10};
  print_row(
      {"protocol", "n", "auth", "inst", "runtime ms", "MB", "frames/s", "ok"},
      sw);
  const std::vector<std::string> protocols =
      quick ? std::vector<std::string>{"rbc", "dolev"}
            : std::vector<std::string>{"rbc", "dolev", "delphi"};
  for (const auto& protocol : protocols) {
    for (const std::size_t instances : {std::size_t{1}, std::size_t{4}}) {
      for (const bool auth : instances == 1 ? std::vector<bool>{true, false}
                                            : std::vector<bool>{true}) {
        const auto spec = protocol_spec(protocol, 4, auth, instances);
        const auto rep = scenario::UdpRuntime().run(spec);
        if (!rep.ok) ++failures;
        const double fps =
            rep.ok && rep.runtime_ms > 0.0
                ? static_cast<double>(rep.honest_msgs) / (rep.runtime_ms / 1e3)
                : 0.0;
        print_row({protocol, "4", auth ? "on" : "off",
                   std::to_string(instances), fmt(rep.runtime_ms, 2),
                   fmt(static_cast<double>(rep.honest_bytes) / 1e6, 3),
                   fmt_int(static_cast<std::uint64_t>(fps)),
                   rep.ok ? "yes" : "NO"},
                  sw);
      }
    }
  }

  // ---- loss sweep -------------------------------------------------------
  std::printf("\n-- ARQ recovery under shim loss (n=4, auth on) --\n");
  const std::vector<int> lw = {10, 8, 12, 10, 10};
  print_row({"protocol", "loss", "runtime ms", "MB", "ok"}, lw);
  for (const std::string protocol : {"rbc", "dolev"}) {
    for (const double loss : {0.0, 0.01, 0.05}) {
      auto spec = protocol_spec(protocol, 4, /*auth=*/true);
      if (loss > 0.0) spec.params["loss"] = loss;
      const auto rep = scenario::UdpRuntime().run(spec);
      if (!rep.ok) ++failures;
      print_row({protocol, fmt(loss * 100.0, 0) + "%", fmt(rep.runtime_ms, 2),
                 fmt(static_cast<double>(rep.honest_bytes) / 1e6, 3),
                 rep.ok ? "yes" : "NO"},
                lw);
    }
  }

  if (failures > 0) {
    std::printf("\n%d run(s) failed\n", failures);
    return 1;
  }
  std::printf("\nall runs ok\n");
  return 0;
}
