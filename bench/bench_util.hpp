#pragma once
/// Shared infrastructure for the experiment benches: testbed configurations
/// (AWS-geo / CPS, matching §VI-C), controlled-range workload generators,
/// scenario-spec builders (run them with scenario::SweepRunner), and table
/// printing.
///
/// Every bench binary regenerates one table/figure of the paper; README.md
/// "Substitutions" lists what stands in for the paper's testbeds and data.

#include <cstdint>
#include <string>
#include <vector>

#include "delphi/delphi.hpp"
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace delphi::bench {

/// Which simulated testbed to run on (§VI-C; the benches use kAws / kCps).
using Testbed = scenario::TestbedKind;

// Testbed simulation configs, per-testbed coin costs, and the clustered
// workloads with realized range exactly delta that drive the paper's
// "Delphi delta = 20$ / 180$" curves all come from the scenario layer.
using scenario::clustered_inputs;
using scenario::default_coin_cost;
using scenario::testbed_config;

/// ScenarioSpec builders for the paper's protocols on a simulated testbed.
scenario::ScenarioSpec delphi_spec(Testbed tb, std::size_t n,
                                   std::uint64_t seed,
                                   const protocol::DelphiParams& params,
                                   const std::vector<double>& inputs);
scenario::ScenarioSpec abraham_spec(Testbed tb, std::size_t n,
                                    std::uint64_t seed, std::uint32_t rounds,
                                    double space_min, double space_max,
                                    const std::vector<double>& inputs);
/// FIN-style ACS: coin cost defaulted per testbed; pass `coin_cost_us >= 0`
/// to override.
scenario::ScenarioSpec fin_spec(Testbed tb, std::size_t n, std::uint64_t seed,
                                const std::vector<double>& inputs,
                                SimTime coin_cost_us = -1);
/// Dolev et al. (JACM '86) multicast AA; tolerates t = (n-1)/5 faults.
scenario::ScenarioSpec dolev_spec(Testbed tb, std::size_t n,
                                  std::uint64_t seed, std::uint32_t rounds,
                                  double space_min, double space_max,
                                  const std::vector<double>& inputs);

/// One labeled point on the standard fault axis.
struct FaultCase {
  std::string name;              ///< row label, e.g. "partition(t,500ms)"
  scenario::ScenarioSpec spec;   ///< the base spec with the fault applied
};

/// The standard fault axis for sweeps: the base spec replicated under every
/// declarative fault family (fault-free first, then crashes at the
/// protocol's resilience bound t, both byzantine= behaviours, and all four
/// adversary= strategies, each sized relative to t). Feed the specs straight
/// into SweepRunner — a fault dimension for any protocol × n
/// grid (bench_fault_sweep is the canonical consumer).
std::vector<FaultCase> fault_axis(const scenario::ScenarioSpec& base);

/// --quick on the command line trims sweeps for CI-speed runs.
bool quick_mode(int argc, char** argv);

/// --xl on the command line adds extra-large system sizes beyond the paper's
/// sweeps (e.g. fig6c's n = 211 point) — opt-in because they multiply run
/// time; the optimized simulator makes them practical at all.
bool xl_mode(int argc, char** argv);

/// Pretty-printing helpers.
void print_title(const std::string& title, const std::string& subtitle);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
std::string fmt(double v, int precision = 2);
std::string fmt_int(std::uint64_t v);

}  // namespace delphi::bench
