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

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/flood.hpp"
#include "transport/udp.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

/// Up to 128 unacked broadcasts (a quarter of the TCP bench's window),
/// credited every 32 frames. The transport packs whatever is queued into
/// datagrams and holds each link's unacked datagrams under a share of the
/// receiver's socket buffer, so this window sets how much a step can pack,
/// not whether frames drop.
constexpr flood::Window kWindow{128, 32};

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
              kWindow.frames);
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
    const std::uint32_t total = quick ? 10'000 : 400'000;
    const auto r = flood::run<transport::UdpMesh>(c.n, c.payload, c.auth,
                                                  total, kWindow);
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
    const std::uint32_t total = quick ? 8'000 : 240'000;
    double base_fps = 0.0;
    for (const std::uint32_t instances : {1u, 2u, 4u, 8u}) {
      const auto r = flood::run_mux<transport::UdpMesh>(
          4, 64, true, total / instances, instances, kWindow);
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
        const auto spec = flood::protocol_spec(
            protocol, scenario::Substrate::kUdp, 4, auth, instances);
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
      auto spec = flood::protocol_spec(protocol, scenario::Substrate::kUdp, 4,
                                       /*auth=*/true);
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
