/// Churn & recovery sweep: deterministic node restarts crossed with
/// protocol × substrate — the bench the churn fault family enables.
///
///   1. Sim churn sweep: protocol × n × churn schedule through SimRuntime
///      (fanned across cores by SweepRunner; churn is deterministic, so the
///      sweep is bit-identical to serial execution). Shows what a restart
///      costs in completion time while logical traffic stays flat — the
///      simulator's pure-delay restart defers frames, it never re-counts
///      them.
///   2. Socket recovery: the same schedules on real TCP and UDP meshes,
///      where a restart actually closes sockets and the node re-dials with
///      backoff (TCP, replay-log catch-up) or rebinds its port (UDP, ARQ
///      retransmission catch-up). Reports the recovery plane's own metrics —
///      reconnects, downtime, catch-up frames — which are excluded from
///      honest traffic by construction, so the MB column matches the
///      churn-free row for fixed-round protocols (dolev) exactly.
///
/// Emitted through bench/run_all.sh as BENCH_churn.json so the recovery
/// plane cannot rot invisibly.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "scenario/sweep.hpp"

using namespace delphi;
using namespace delphi::bench;
using scenario::ScenarioSpec;

namespace {

struct Recovery {
  std::uint64_t reconnects = 0;
  std::uint64_t downtime_ms = 0;
  std::uint64_t catchup_frames = 0;
  std::uint64_t catchup_bytes = 0;
};

Recovery recovery_totals(const scenario::RunReport& rep) {
  Recovery tot;
  for (const auto& nc : rep.nodes) {
    tot.reconnects += nc.reconnects;
    tot.downtime_ms += nc.downtime_ms;
    tot.catchup_frames += nc.catchup_frames;
    tot.catchup_bytes += nc.catchup_bytes;
  }
  return tot;
}

/// One labeled churn schedule.
struct ChurnCase {
  std::string name;
  std::vector<scenario::ChurnSpec> churn;
};

ScenarioSpec base_spec(const std::string& protocol, scenario::Substrate sub,
                       std::size_t n) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.substrate = sub;
  spec.testbed = scenario::TestbedKind::kAsync;
  spec.n = n;
  spec.seed = 7;
  if (protocol == "dolev") spec.params["rounds"] = 4;
  if (sub != scenario::Substrate::kSim) spec.params["timeout-ms"] = 120'000;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Churn & recovery — deterministic restarts across substrates",
              "churn=k:down_us:up_us restarts k honest nodes; sim defers "
              "their frames\n(pure-delay restart), tcp re-dials with backoff "
              "+ replay catch-up, udp\nrebinds + ARQ retransmission. Catch-up "
              "traffic is counted separately from\nhonest bytes.");

  int failures = 0;

  // ---- sim churn sweep --------------------------------------------------
  const std::vector<std::string> protocols =
      quick ? std::vector<std::string>{"delphi", "dolev"}
            : std::vector<std::string>{"delphi", "rbc", "dolev"};
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 16};
  const std::vector<ChurnCase> schedules = {
      {"none", {}},
      {"churn:1", {{1, 2'000, 50'000}}},
      {"churn:2", {{2, 2'000, 50'000}}},
      {"churn:1x2", {{1, 2'000, 50'000}, {1, 80'000, 120'000}}},
  };

  std::printf("\n-- sim churn sweep (deferred frames counted as catch-up) --\n");
  struct Row {
    std::string protocol;
    std::size_t n;
    std::string churn;
  };
  std::vector<Row> rows;
  std::vector<ScenarioSpec> specs;
  for (const auto& protocol : protocols) {
    for (const std::size_t n : sizes) {
      for (const auto& cc : schedules) {
        ScenarioSpec spec = base_spec(protocol, scenario::Substrate::kSim, n);
        spec.churn = cc.churn;
        rows.push_back({protocol, n, cc.name});
        specs.push_back(std::move(spec));
      }
    }
  }
  const auto reports = scenario::SweepRunner().run(specs);
  const std::vector<int> sw = {10, 6, 12, 12, 10, 8, 9, 10, 10, 6};
  print_row({"protocol", "n", "churn", "runtime_ms", "MB", "msgs", "restarts",
             "down_ms", "catchup", "ok"},
            sw);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& rep = reports[i];
    if (!rep.ok) ++failures;
    const Recovery rec = recovery_totals(rep);
    print_row({rows[i].protocol, std::to_string(rows[i].n), rows[i].churn,
               fmt(rep.runtime_ms, 2), fmt(rep.megabytes(), 3),
               fmt_int(rep.honest_msgs), fmt_int(rec.reconnects),
               fmt_int(rec.downtime_ms), fmt_int(rec.catchup_frames),
               rep.ok ? "y" : "N"},
              sw);
  }

  // ---- socket recovery --------------------------------------------------
  // down_us = 0 makes the restart unconditional on machine speed: the
  // churned node is dark from the very first frame, so completion requires
  // the catch-up plane (TCP replay logs / UDP ARQ), not lucky timing.
  std::printf("\n-- socket recovery (n=4, node dark from start, real "
              "restarts) --\n");
  const std::vector<int> kw = {10, 6, 12, 12, 10, 8, 9, 10, 10, 6};
  print_row({"protocol", "sub", "churn", "runtime_ms", "MB", "msgs",
             "restarts", "down_ms", "catchup", "ok"},
            kw);
  const std::vector<std::string> socket_protocols =
      quick ? std::vector<std::string>{"dolev"}
            : std::vector<std::string>{"rbc", "dolev", "delphi"};
  for (const auto& protocol : socket_protocols) {
    for (const auto sub :
         {scenario::Substrate::kTcp, scenario::Substrate::kUdp}) {
      const bool tcp = sub == scenario::Substrate::kTcp;
      const std::vector<ChurnCase> socket_cases = {
          {"none", {}},
          {"churn:1",
           {{1, 0, tcp ? std::uint64_t{150'000} : std::uint64_t{120'000}}}},
      };
      for (const auto& cc : socket_cases) {
        ScenarioSpec spec = base_spec(protocol, sub, 4);
        spec.churn = cc.churn;
        scenario::RunReport rep;
        rep = tcp ? scenario::TcpRuntime().run(spec)
                  : scenario::UdpRuntime().run(spec);
        if (!rep.ok) ++failures;
        const Recovery rec = recovery_totals(rep);
        print_row({protocol, tcp ? "tcp" : "udp", cc.name,
                   fmt(rep.runtime_ms, 2), fmt(rep.megabytes(), 3),
                   fmt_int(rep.honest_msgs), fmt_int(rec.reconnects),
                   fmt_int(rec.downtime_ms), fmt_int(rec.catchup_frames),
                   rep.ok ? "y" : "N"},
                  kw);
      }
    }
  }

  std::printf(
      "\nexpected shape: sim completion under churn tracks the restart window"
      "\n(up_us) plus the deferred rounds' latency while MB and msgs match the"
      "\nchurn-free row (pure-delay restart, nothing re-counted); on the"
      "\nsockets dolev's MB column is identical with and without churn"
      "\n(fixed-round multicast + catch-up excluded from honest bytes), while"
      "\nthe restarts/down_ms/catchup columns show the recovery plane doing"
      "\nreal work.\n");
  if (failures > 0) {
    std::fprintf(stderr, "%d churned run(s) did not terminate\n", failures);
    return 1;
  }
  return 0;
}
