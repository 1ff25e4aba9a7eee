/// Fault sweep: every declarative fault family (adversary= network attacks
/// and byzantine= node behaviours, plus crash-from-start) crossed with a
/// protocol × n grid — the scenario-diversity bench the fault plane enables.
/// The paper evaluates fault-free executions; this sweep measures how much
/// of each protocol's headroom realized faults consume, and that every
/// protocol still terminates under all of them (asynchronous safety is only
/// interesting when the adversary actually shows up).
///
/// All runs are independent ScenarioSpecs fanned across cores by
/// scenario::SweepRunner — the fault axis is just one more sweep
/// dimension, bit-identical to serial execution.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;
using scenario::ScenarioSpec;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const std::vector<const char*> protocols = {"delphi", "abraham", "dolev",
                                              "fin"};
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{8, 16}
            : std::vector<std::size_t>{16, 31, 61};

  print_title("Fault sweep — every fault family x protocol x n",
              "AWS testbed, delta = 20$ oracle workload; adversary= delays "
              "and reorders,\nbyzantine= wraps faulted nodes, crashes= "
              "silences them. All runs via SweepRunner.");

  // Build the full grid first so the sweep saturates every core.
  std::vector<FaultCase> grid;
  for (const char* protocol : protocols) {
    for (const std::size_t n : sizes) {
      ScenarioSpec base;
      base.protocol = protocol;
      base.testbed = scenario::TestbedKind::kAws;
      base.n = n;
      base.seed = 1;
      for (auto& fc : fault_axis(base)) grid.push_back(std::move(fc));
    }
  }
  std::vector<ScenarioSpec> specs;
  specs.reserve(grid.size());
  for (const auto& fc : grid) specs.push_back(fc.spec);
  const auto results = scenario::SweepRunner().run(specs);

  const std::vector<int> w = {10, 6, 26, 14, 10, 10, 6};
  print_row({"protocol", "n", "fault", "runtime_ms", "MB", "msgs", "ok"}, w);
  std::size_t failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (!r.ok) ++failures;
    print_row({grid[i].spec.protocol, std::to_string(grid[i].spec.n),
               grid[i].name, fmt(r.runtime_ms, 0), fmt(r.megabytes(), 2),
               fmt_int(r.honest_msgs), r.ok ? "y" : "N"},
              w);
  }

  std::printf(
      "\nexpected shape: crash(t) is the costliest benign fault (quorums are\n"
      "exact, the latency tail's slack is gone); partition completion tracks\n"
      "the heal time plus ~one round-trip (help-after-decide); random-delay\n"
      "and burst stretch runtime by roughly the extra delay per round while\n"
      "traffic stays flat; garbage sprayers add drops, not honest traffic.\n");
  if (failures > 0) {
    std::fprintf(stderr, "%zu faulted run(s) did not terminate\n", failures);
    return 1;
  }
  return 0;
}
