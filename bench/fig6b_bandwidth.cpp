/// Regenerates Fig 6b: network bandwidth vs n on AWS for the oracle-network
/// workload. Paper config: rho0 = eps = 2$, Delta = 2000$; Delphi curves for
/// delta = 20$ and delta = 180$, baselines FIN and Abraham at delta = 20$.
///
/// Reproduction target (shape): Delphi's MB grow ~n² and sit well below the
/// baselines' ~n³ curves at large n; the gap widens with n.
///
/// Below the table it splits Delphi d=20's bytes at n = 16 and 40: frames
/// per agreement and their mean size, the share the per-frame MAC and the
/// length + channel prefix take, and the echo entries per bundle.

#include <cstdio>
#include <memory>

#include "bench/bench_util.hpp"
#include "delphi/message.hpp"
#include "scenario/registry.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

/// Bundles the honest nodes broadcast and the echo entries they carry.
struct BundleTally {
  std::uint64_t bundles = 0;
  std::uint64_t entries = 0;
};

/// Hosts a Delphi node, counting its bundles on the way to the host.
class CountedDelphi final : public net::Protocol, private net::Context {
 public:
  CountedDelphi(std::unique_ptr<net::Protocol> inner, BundleTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  void on_start(net::Context& ctx) override {
    host_ = &ctx;
    inner_->on_start(*this);
  }
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override {
    host_ = &ctx;
    inner_->on_message(*this, from, channel, body);
  }
  bool terminated() const override { return inner_->terminated(); }

 private:
  NodeId self() const override { return host_->self(); }
  std::size_t n() const override { return host_->n(); }
  SimTime now() const override { return host_->now(); }
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override {
    host_->send(to, channel, std::move(msg));
  }
  void broadcast(std::uint32_t channel, net::MessagePtr msg) override {
    if (const auto* b =
            dynamic_cast<const protocol::DelphiBundle*>(msg.get())) {
      ++tally_.bundles;
      tally_.entries += b->defaults().size() + b->explicits().size();
    }
    host_->broadcast(channel, std::move(msg));
  }
  void charge_compute(SimTime us) override { host_->charge_compute(us); }
  Rng& rng() override { return host_->rng(); }

  std::unique_ptr<net::Protocol> inner_;
  BundleTally& tally_;
  net::Context* host_ = nullptr;
};

/// Run a Delphi spec with every node counted. Counting perturbs nothing:
/// the run is the one the table reports.
BundleTally count_bundles(const scenario::ScenarioSpec& spec) {
  BundleTally tally;
  scenario::ProtocolInfo info =
      scenario::ProtocolRegistry::global().require("delphi");
  info.make_factory = [make = info.make_factory, &tally](
                          const scenario::ScenarioSpec& s,
                          std::vector<double> inputs) {
    net::ProtocolFactory inner = make(s, std::move(inputs));
    return net::ProtocolFactory([inner, &tally](NodeId id) {
      return std::make_unique<CountedDelphi>(inner(id), tally);
    });
  };
  scenario::ProtocolRegistry reg;
  reg.add("delphi", std::move(info));
  scenario::SimRuntime(&reg).run(spec);
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Fig 6b — bandwidth vs n on AWS (oracle network)",
              "Delphi config rho0 = eps = 2$, Delta = 2000$; honest traffic "
              "in MB per agreement.");

  const auto params = protocol::DelphiParams::oracle_network();

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16, 40}
            : std::vector<std::size_t>{16, 40, 64, 112, 160};

  const std::vector<int> w = {8, 14, 16, 14, 18};
  print_row({"n", "Delphi d=20", "Delphi d=180", "FIN", "Abraham d=20"}, w);

  std::vector<scenario::ScenarioSpec> specs;
  for (std::size_t n : sizes) {
    const auto in20 = clustered_inputs(n, 40'000.0, 20.0, 7 + n);
    const auto in180 = clustered_inputs(n, 40'000.0, 180.0, 9 + n);
    specs.push_back(delphi_spec(Testbed::kAws, n, 1, params, in20));
    specs.push_back(delphi_spec(Testbed::kAws, n, 2, params, in180));
    // The baselines' traffic is delta-independent (RBC everything), so one
    // delta suffices — matching the paper's single FIN curve.
    specs.push_back(fin_spec(Testbed::kAws, n, 3, in20));
    specs.push_back(abraham_spec(Testbed::kAws, n, 4, /*rounds=*/10, 0.0,
                                 200'000.0, in20));
  }
  const auto results = scenario::SweepRunner().run(specs);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto* r = &results[4 * i];
    print_row({std::to_string(sizes[i]), fmt(r[0].megabytes(), 2),
               fmt(r[1].megabytes(), 2), fmt(r[2].megabytes(), 2),
               fmt(r[3].megabytes(), 2)},
              w);
  }
  std::printf(
      "\npaper shape: Delphi grows ~n^2 vs the baselines' ~n^3 and falls "
      "increasingly below Abraham with n.\n");

  // Where Delphi d=20's bytes go, on the table's own runs plus the same
  // specs with auth=0.
  std::printf("\nWhere Delphi d=20's bytes go:\n");
  const std::vector<int> wb = {8, 12, 10, 11, 14, 15};
  print_row({"n", "frames", "B/frame", "MAC share", "len+ch share",
             "entries/bundle"},
            wb);
  const std::size_t split_sizes = std::min<std::size_t>(sizes.size(), 2);
  std::vector<scenario::ScenarioSpec> plain;
  for (std::size_t i = 0; i < split_sizes; ++i) {
    plain.push_back(specs[4 * i]);
    plain.back().params["auth"] = 0;
  }
  const auto plain_results = scenario::SweepRunner().run(plain);
  for (std::size_t i = 0; i < split_sizes; ++i) {
    const auto& r = results[4 * i];
    const BundleTally tally = count_bundles(specs[4 * i]);
    const double bytes = static_cast<double>(r.honest_bytes);
    const double frames = static_cast<double>(r.honest_msgs);
    // A Delphi frame's prefix: the u32 length and a one-byte channel.
    print_row({std::to_string(sizes[i]), fmt_int(r.honest_msgs),
               fmt(bytes / frames, 1),
               fmt(1.0 - static_cast<double>(plain_results[i].honest_bytes) /
                             bytes,
                   3),
               fmt(5.0 * frames / bytes, 3),
               fmt(static_cast<double>(tally.entries) /
                       static_cast<double>(tally.bundles),
                   2)},
              wb);
  }
  std::printf(
      "\nThe simulator sends one bundle per delivery that produces echoes, "
      "so bundles carry few entries and each frame's 32 B MAC and 5 B "
      "length + channel prefix outweigh its payload. The TCP and UDP "
      "substrates merge a node's bundles per event-loop pass (one frame per "
      "channel per pass); the simulator does not, so Delphi and the "
      "baselines here compare frame for frame. The entry coding is not the "
      "gap: ablation_codec's compact 3-bit VAL codes save 2.2-6.8%% of a "
      "BinAA instance's bytes with auth.\n");
  return 0;
}
