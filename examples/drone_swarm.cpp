/// Drone swarm example (paper §VI-B): a fleet of surveillance drones detects
/// a car, each estimating its position from a noisy bounding box + GPS, and
/// agrees on the location with two Delphi instances (one per coordinate) on
/// the CPS (Raspberry-Pi-class) network model.
///
/// One drone is compromised and reports positions 300 m away; the fleet's
/// agreed location must stay glued to the honest estimates.
///
/// Build: cmake --build build && ./build/examples/drone_swarm

#include <cstdio>

#include "drone/localize.hpp"
#include "sim/simulator.hpp"
#include "sim/latency.hpp"

using namespace delphi;

int main() {
  const std::size_t n = 10;
  const std::size_t t = max_faults(n);

  drone::DetectionModel camera{drone::DetectionConfig{}};
  Rng world(42);

  // Three cars at different spots in the surveilled area.
  const drone::Vec2 cars[] = {{120.0, -35.0}, {-210.0, 400.0}, {0.0, 0.0}};

  drone::LocalizationProtocol::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.params = protocol::DelphiParams::drone_cps();

  std::printf("car |        truth        |       agreed        |  error | "
              "spread(x)\n");
  std::printf("----+---------------------+---------------------+--------+-"
              "---------\n");

  for (std::size_t c = 0; c < 3; ++c) {
    auto observations = drone::fleet_observations(camera, cars[c], n, world);
    // Drone n-1 is compromised: it feeds a location 300 m off.
    observations[n - 1] = cars[c] + drone::Vec2{300.0, -300.0};

    sim::SimConfig net;
    net.n = n;
    net.seed = 500 + c;
    net.latency = std::make_shared<sim::CpsLanLatency>();
    net.cost = sim::CostModel::cps();

    sim::Simulator sim(net);
    for (NodeId i = 0; i < n; ++i) {
      sim.add_node(
          std::make_unique<drone::LocalizationProtocol>(cfg, observations[i]));
    }
    sim.set_byzantine({static_cast<NodeId>(n - 1)});
    if (!sim.run()) {
      std::printf("localization failed to terminate (bug!)\n");
      return 1;
    }

    // All honest drones agree on the position within eps per coordinate.
    double min_x = 1e300, max_x = -1e300;
    drone::Vec2 agreed{};
    for (NodeId i = 0; i + 1 < n; ++i) {
      const auto pos = *sim.node_as<drone::LocalizationProtocol>(i).position();
      agreed = pos;
      min_x = std::min(min_x, pos.x);
      max_x = std::max(max_x, pos.x);
    }
    std::printf("%3zu | (%8.2f, %8.2f) | (%8.2f, %8.2f) | %5.2fm | %.3fm\n",
                c, cars[c].x, cars[c].y, agreed.x, agreed.y,
                (agreed - cars[c]).norm(), max_x - min_x);
  }
  std::printf("\nThe compromised drone's 300 m decoy never moves the agreed "
              "position: its far-away checkpoints can't gather weight.\n");
  return 0;
}
