/// Real-socket TCP data-plane throughput — the substrate behind the paper's
/// fig6a/6b deployments. Four sections:
///
///   1. Broadcast fan-out cost: the per-destination price of framing one
///      payload for many links — the legacy path (fresh encode + full HMAC
///      key schedule per destination, what the pre-overhaul data plane did)
///      against the shared-body + precomputed-HmacKey path, in the same
///      binary, so the before/after ratio is re-measured on every run (the
///      median of 7 alternating timed batches per side, after one untimed
///      pass of each).
///   2. Link flood: a windowed credit protocol saturates the authenticated
///      TCP mesh with fixed-size broadcast frames and measures delivered
///      frames/s and MB/s (payload size x auth on/off x n).
///   3. Multi-instance flood: the same flood split across k concurrent
///      SessionMux instances over ONE mesh (instances in {1,2,4,8} x n) —
///      frames from every instance funnel into the same per-link output
///      buffer and leave in the same write(2) calls, so aggregate
///      authenticated frames/s must hold at (or above) the single-instance
///      baseline.
///   4. Scenario sweep: protocol x n x auth x instances through
///      ScenarioSpec/TcpRuntime — the end-to-end numbers every future TCP
///      scenario inherits.
///
/// Emitted through bench/run_all.sh as BENCH_tcp_throughput.json so the TCP
/// axis can no longer rot invisibly.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.hpp"
#include "bench/flood.hpp"
#include "transport/tcp.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

using flood::Clock;
using flood::seconds_since;

/// Up to 512 unacked broadcasts, credited every 128 frames.
constexpr flood::Window kWindow{512, 128};

// --------------------------------------------------------- fan-out section

/// ns per destination for framing one `payload_size`-byte broadcast to
/// `fanout` authenticated links, legacy vs shared-body path.
struct FanoutCost {
  double legacy_ns = 0.0;
  double shared_ns = 0.0;
};

/// Timed batches per side; the table prints their median.
constexpr int kFanoutBatches = 7;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// One untimed pass of each path, then kFanoutBatches alternating timed
/// batches of `iters` broadcasts per side, so neither side alone pays for
/// cold caches or a clock ramp.
FanoutCost measure_fanout(std::size_t payload_size, std::size_t fanout,
                          std::size_t iters) {
  const std::vector<std::uint8_t> payload(payload_size, 0x5A);
  crypto::KeyStore keys(/*master=*/7, fanout + 1);
  std::vector<crypto::HmacKey> links;  // per-link midstates, derived once
  for (std::size_t j = 0; j < fanout; ++j) {
    links.emplace_back(keys.channel_key(0, static_cast<NodeId>(j + 1)));
  }

  std::uint64_t sink = 0;
  // Legacy: every destination re-encodes the frame and re-runs the full
  // HMAC key schedule (ipad/opad absorption) — per-destination work.
  const auto legacy = [&] {
    for (std::size_t i = 0; i < iters; ++i) {
      for (std::size_t j = 0; j < fanout; ++j) {
        const auto frame = transport::encode_frame(
            3, payload, &keys.channel_key(0, static_cast<NodeId>(j + 1)));
        sink += frame.back();
      }
    }
  };
  // Shared body: one serialization, per-destination work is two
  // compression finishes on the precomputed midstates.
  const auto shared = [&] {
    for (std::size_t i = 0; i < iters; ++i) {
      const auto body = transport::encode_frame_body(3, payload, true);
      for (std::size_t j = 0; j < fanout; ++j) {
        const auto tag = transport::frame_tag(links[j], *body);
        sink += tag[31];
      }
    }
  };
  const auto ns_per_destination = [&](const auto& pass) {
    const auto t0 = Clock::now();
    pass();
    return seconds_since(t0) * 1e9 / static_cast<double>(iters * fanout);
  };

  legacy();
  shared();
  std::vector<double> legacy_ns;
  std::vector<double> shared_ns;
  for (int b = 0; b < kFanoutBatches; ++b) {
    legacy_ns.push_back(ns_per_destination(legacy));
    shared_ns.push_back(ns_per_destination(shared));
  }
  if (sink == 0xFFFFFFFF) std::printf("~");  // defeat dead-code elimination
  return {median(legacy_ns), median(shared_ns)};
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("TCP data-plane throughput (real localhost sockets)",
              "Flood: windowed broadcast of fixed-size frames (single- and "
              "multi-instance over one mesh); sweep: protocol x n x auth x "
              "instances through ScenarioSpec/TcpRuntime.");

  int failures = 0;

  // ---- broadcast fan-out cost ------------------------------------------
  std::printf("\n-- broadcast fan-out: ns/destination, median of %d "
              "batches, authenticated (%s) --\n",
              kFanoutBatches,
              crypto::sha256_hw_accelerated() ? "SHA-NI" : "scalar SHA-256");
  const std::vector<int> cw = {8, 8, 14, 14, 10};
  print_row({"payload", "fanout", "legacy ns", "shared ns", "speedup"}, cw);
  const std::size_t fan_iters = quick ? 1'000 : 4'000;  // per batch
  for (const std::size_t payload : {64u, 1024u}) {
    for (const std::size_t fanout : {4u, 16u}) {
      const auto c = measure_fanout(payload, fanout, fan_iters);
      print_row({std::to_string(payload), std::to_string(fanout),
                 fmt(c.legacy_ns, 0), fmt(c.shared_ns, 0),
                 fmt(c.legacy_ns / c.shared_ns, 2) + "x"},
                cw);
    }
  }

  // ---- link flood -------------------------------------------------------
  std::printf("\n-- link flood (node 0 broadcasts, %u-frame window) --\n",
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
    const std::uint32_t total = quick ? 15'000 : 400'000;
    const auto r = flood::run<transport::TcpCluster>(c.n, c.payload, c.auth,
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
  // The ROADMAP amortization target: k feeds over ONE mesh must sustain
  // aggregate authenticated frames/s at or above the single-instance
  // baseline (~1.36 M at n=4), because cross-instance backlogs coalesce in
  // each link's output buffer and leave in the same write(2) calls. Total
  // frames are held constant across the axis so rows are directly
  // comparable.
  std::printf("\n-- multi-instance flood (64 B, auth on, SessionMux over one "
              "mesh) --\n");
  const std::vector<int> mw = {6, 10, 10, 10, 12, 10};
  print_row({"n", "instances", "frames", "wall s", "frames/s", "vs x1"}, mw);
  for (const std::size_t n : {2u, 4u}) {
    const std::uint32_t total = quick ? 24'000 : 240'000;
    double base_fps = 0.0;
    for (const std::uint32_t instances : {1u, 2u, 4u, 8u}) {
      const auto r = flood::run_mux<transport::TcpCluster>(
          n, 64, true, total / instances, instances, kWindow);
      if (!r.ok) ++failures;
      const double fps = r.ok ? static_cast<double>(r.frames) / r.wall_s : 0.0;
      if (instances == 1) base_fps = fps;
      print_row({std::to_string(n), std::to_string(instances),
                 fmt_int(r.frames), fmt(r.wall_s, 3),
                 fmt_int(static_cast<std::uint64_t>(fps)),
                 base_fps > 0.0 ? fmt(fps / base_fps, 2) + "x" : "-"},
                mw);
    }
  }

  // ---- protocol sweep ---------------------------------------------------
  std::printf("\n-- protocol sweep over TcpRuntime --\n");
  const std::vector<int> sw = {10, 6, 6, 6, 12, 10, 12, 10};
  print_row(
      {"protocol", "n", "auth", "inst", "runtime ms", "MB", "frames/s", "ok"},
      sw);
  const std::vector<std::string> protocols =
      quick ? std::vector<std::string>{"dolev", "delphi"}
            : std::vector<std::string>{"dolev", "rbc", "delphi"};
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 7};
  const std::vector<std::size_t> inst_axis =
      quick ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  for (const auto& protocol : protocols) {
    for (const std::size_t n : sizes) {
      for (const std::size_t instances : inst_axis) {
        // The auth toggle only matters for the single-instance rows; the
        // instances axis is about aggregate authenticated throughput.
        for (const bool auth : instances == 1
                                   ? std::vector<bool>{true, false}
                                   : std::vector<bool>{true}) {
          const auto spec = flood::protocol_spec(
              protocol, scenario::Substrate::kTcp, n, auth, instances);
          const auto rep = scenario::TcpRuntime().run(spec);
          if (!rep.ok) ++failures;
          const double fps = rep.ok && rep.runtime_ms > 0.0
                                 ? static_cast<double>(rep.honest_msgs) /
                                       (rep.runtime_ms / 1e3)
                                 : 0.0;
          print_row({protocol, std::to_string(n), auth ? "on" : "off",
                     std::to_string(instances), fmt(rep.runtime_ms, 2),
                     fmt(static_cast<double>(rep.honest_bytes) / 1e6, 3),
                     fmt_int(static_cast<std::uint64_t>(fps)),
                     rep.ok ? "yes" : "NO"},
                    sw);
        }
      }
    }
  }

  if (failures > 0) {
    std::printf("\n%d run(s) failed\n", failures);
    return 1;
  }
  std::printf("\nall runs ok\n");
  return 0;
}
