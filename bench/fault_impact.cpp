/// Fault-impact bench: Delphi's runtime and traffic as actual faults are
/// injected — crash-from-start, garbage spray, and a healed network
/// partition. The paper evaluates fault-free executions (its t is a *bound*);
/// this bench measures what realized faults cost, and demonstrates the
/// help-after-decide mechanism (a decided majority keeps echoing so a
/// partitioned minority can finish — see delphi.cpp).
///
/// Every run is a declarative ScenarioSpec (crashes= / byzantine= /
/// adversary= are first-class spec fields since the fault plane landed) and
/// the whole grid executes through scenario::SweepRunner — multi-core, in spec
/// order, bit-identical to the historical serial loops.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;
using scenario::ScenarioSpec;

namespace {

/// The paper's AWS oracle deployment: delta = 20$ price workload (explicit
/// inputs so the historical workload seed 41 is reproduced exactly).
ScenarioSpec oracle_spec(std::size_t n, std::uint64_t seed,
                         const std::vector<double>& inputs) {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 200'000.0;
  p.rho0 = 10.0;
  p.eps = 2.0;
  p.delta_max = 2000.0;
  auto spec = delphi_spec(Testbed::kAws, n, seed, p, inputs);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const std::size_t n = quick ? 16 : 31;
  const std::size_t t = max_faults(n);
  const auto inputs = clustered_inputs(n, 40'000.0, 20.0, 41);

  print_title("Fault impact — Delphi under realized faults",
              "AWS testbed, n = " + std::to_string(n) + " (t = " +
                  std::to_string(t) + "), delta = 20$ oracle workload.");

  // Declarative fault grid: fault-free baseline, escalating crash counts,
  // and a crash + garbage-spray mix — one spec each.
  std::vector<ScenarioSpec> fault_specs;
  std::vector<std::string> fault_labels;
  fault_specs.push_back(oracle_spec(n, 1, inputs));
  fault_labels.push_back("fault-free");
  for (std::size_t f = 1; f <= t; f = (f >= t ? t + 1 : std::min(t, f * 2 + 1))) {
    auto spec = oracle_spec(n, 1 + f, inputs);
    spec.crashes = f;
    fault_specs.push_back(spec);
    fault_labels.push_back(std::to_string(f) + " crashed");
  }
  {
    auto spec = oracle_spec(n, 8, inputs);
    spec.crashes = t / 2;
    spec.byzantine = scenario::parse_byzantine(
        "garbage:64:" + std::to_string(t - t / 2));
    fault_specs.push_back(spec);
    fault_labels.push_back(std::to_string(t / 2) + " crashed + " +
                           std::to_string(t - t / 2) + " garbage sprayers");
  }

  const std::vector<int> w = {30, 14, 12, 6};
  print_row({"fault mix", "runtime_ms", "MB", "ok"}, w);
  const auto fault_results = scenario::SweepRunner().run(fault_specs);
  for (std::size_t i = 0; i < fault_results.size(); ++i) {
    const auto& r = fault_results[i];
    print_row({fault_labels[i], fmt(r.runtime_ms, 0), fmt(r.megabytes(), 2),
               r.ok ? "y" : "N"},
              w);
  }

  std::printf("\npartition of the t-node minority, healed at T "
              "(help-after-decide):\n");
  print_row({"heal time", "completion_ms", "MB", "ok"}, w);
  const std::vector<SimTime> heals =
      quick ? std::vector<SimTime>{0, 2 * kSecond}
            : std::vector<SimTime>{0, kSecond, 2 * kSecond, 5 * kSecond};
  std::vector<ScenarioSpec> heal_specs;
  for (SimTime heal : heals) {
    auto spec = oracle_spec(n, 51, inputs);
    spec.adversary = scenario::parse_adversary(
        "partition:" + std::to_string(t) + ":" + std::to_string(heal));
    heal_specs.push_back(spec);
  }
  const auto heal_results = scenario::SweepRunner().run(heal_specs);
  for (std::size_t i = 0; i < heal_results.size(); ++i) {
    const auto& r = heal_results[i];
    print_row({fmt(static_cast<double>(heals[i]) / 1000.0, 0) + " ms",
               fmt(r.runtime_ms, 0), fmt(r.megabytes(), 2), r.ok ? "y" : "N"},
              w);
  }

  std::printf(
      "\nexpected shape: traffic drops roughly linearly with crashed nodes\n"
      "(fewer senders), while runtime *rises* — with f nodes silent every\n"
      "quorum needs all of the slowest n - t - f + ... responders, so the\n"
      "slack the latency tail normally provides disappears (worst at f = t,\n"
      "where quorums are exact). Garbage sprayers cost validation CPU but\n"
      "change nothing else. The partitioned minority finishes ~one round-trip\n"
      "after the heal, because decided nodes keep serving echoes instead of\n"
      "going silent.\n");
  return 0;
}
