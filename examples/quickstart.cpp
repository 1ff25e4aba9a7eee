/// Quickstart: run Delphi among 7 simulated nodes and print the agreed value.
///
/// This is the smallest end-to-end use of the library:
///   1. pick protocol parameters (input space, rho0, Delta, eps);
///   2. build a simulated asynchronous deployment;
///   3. give every node its sensor reading;
///   4. run to termination and read the outputs.
///
/// Build: cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "delphi/delphi.hpp"
#include "sim/simulator.hpp"

using namespace delphi;

int main() {
  // 1. Parameters. All honest inputs must lie in [space_min, space_max];
  //    Delta bounds the honest input range except with negligible
  //    probability (see stats/evt.hpp to derive it from a noise model);
  //    eps is the agreement distance; rho0 the finest checkpoint spacing.
  protocol::DelphiParams params;
  params.space_min = 0.0;
  params.space_max = 1000.0;
  params.rho0 = 1.0;
  params.eps = 1.0;
  params.delta_max = 64.0;

  const std::size_t n = 7;             // nodes
  const std::size_t t = max_faults(n); // tolerated Byzantine faults (2)

  // 2. A simulated asynchronous network (wide random delays, reordering).
  sim::SimConfig net;
  net.n = n;
  net.seed = 2024;
  net.latency = std::make_shared<sim::UniformLatency>(1'000, 50'000);

  // 3. Each node's sensor reading of the same physical quantity.
  const double readings[n] = {99.2, 100.1, 100.4, 100.8, 99.9, 101.5, 100.0};

  // 4. Run.
  protocol::DelphiProtocol::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.params = params;
  sim::Simulator sim(net);
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<protocol::DelphiProtocol>(cfg, readings[i]));
  }
  const bool terminated = sim.run();

  std::printf("terminated: %s\n", terminated ? "yes" : "no");
  std::printf("outputs:   ");
  for (NodeId i = 0; i < n; ++i) {
    if (const auto v = sim.node_as<protocol::DelphiProtocol>(i).output_value()) {
      std::printf(" %.3f", *v);
    }
  }
  std::printf("\n");
  const auto traffic = sim.traffic_totals();
  std::printf("traffic:    %.1f KB in %llu messages, %.0f ms simulated\n",
              traffic.honest_bytes / 1e3,
              static_cast<unsigned long long>(traffic.honest_msgs),
              sim.metrics().honest_completion / 1000.0);

  // Every output is within eps of every other and inside the relaxed hull
  // [min - max(rho0, delta), max + max(rho0, delta)] of the readings.
  return terminated ? 0 : 1;
}
