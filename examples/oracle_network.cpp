/// Oracle network example (paper §V-VI-A): a fleet of oracle nodes reports
/// the Bitcoin price once a minute. Each node queries a few exchanges, feeds
/// the median into Delphi, rounds the result onto the eps grid, and collects
/// a t+1 attestation certificate (DORA) ready for an SMR channel/blockchain.
///
/// We simulate ten minutes of operation on the geo-distributed AWS model and
/// show the certified price tracking the (hidden) mid price, including one
/// minute where t nodes are Byzantine.
///
/// Build: cmake --build build && ./build/examples/oracle_network

#include <cstdio>
#include <set>

#include "oracle/dora.hpp"
#include "oracle/feed.hpp"
#include "sim/byzantine.hpp"
#include "sim/simulator.hpp"
#include "sim/latency.hpp"

using namespace delphi;

int main() {
  const std::size_t n = 16;
  const std::size_t t = max_faults(n);

  // Deployment-wide key material for the attestation layer.
  crypto::KeyStore keys(/*master=*/0xBEEFCAFE, n);

  // The paper's oracle configuration: rho0 = eps = 2$, Delta = 2000$
  // (derived from the Fig 4 Fréchet fit at lambda = 30 bits).
  oracle::DoraProtocol::Config cfg;
  cfg.delphi.n = n;
  cfg.delphi.t = t;
  cfg.delphi.params = protocol::DelphiParams::oracle_network();

  oracle::PriceFeed feed(oracle::FeedConfig{}, Rng(7));

  std::printf("minute |   mid price | certified price | spread | byz\n");
  std::printf("-------+-------------+-----------------+--------+----\n");

  for (int minute = 1; minute <= 10; ++minute) {
    const auto snapshot = feed.next_minute();
    // One attestation session per minute (prevents cross-minute replay).
    crypto::Attestor attestor(keys, static_cast<std::uint64_t>(minute));
    cfg.attestor = &attestor;

    Rng obs_rng(100 + minute);
    const bool with_byzantine = (minute == 7);  // one bad minute

    sim::SimConfig net;
    net.n = n;
    net.seed = 1000 + minute;
    net.latency = std::make_shared<sim::AwsGeoLatency>(n);
    net.cost = sim::CostModel::aws();

    sim::Simulator sim(net);
    std::set<NodeId> byz;
    for (NodeId i = 0; i < n; ++i) {
      if (with_byzantine && i >= n - t) {
        // Crash-faulty oracles this minute.
        sim.add_node(std::make_unique<sim::SilentProtocol>());
        byz.insert(i);
      } else {
        const double price = oracle::node_observation(snapshot, 3, obs_rng);
        sim.add_node(std::make_unique<oracle::DoraProtocol>(cfg, price));
      }
    }
    sim.set_byzantine(byz);
    if (!sim.run()) {
      std::printf("%6d | minute failed to terminate (bug!)\n", minute);
      return 1;
    }

    // All honest nodes hold a verifiable certificate; at most two adjacent
    // grid values can ever be certified.
    std::set<double> certified;
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) continue;
      const auto& node = sim.node_as<oracle::DoraProtocol>(i);
      if (!attestor.verify(node.certificate(), t + 1)) {
        std::printf("invalid certificate at node %u!\n", i);
        return 1;
      }
      certified.insert(*node.output_value());
    }
    std::printf("%6d | %10.2f$ | %14.2f$ | %5.2f$ | %s\n", minute, feed.mid(),
                *certified.begin(), feed.last_range(),
                with_byzantine ? "t crashed" : "-");
  }
  std::printf("\nEvery certified price is within delta + eps of the honest "
              "median — ready for submission to the SMR channel.\n");
  return 0;
}
