/// Ablation: the rho0 trade-off the paper discusses in §III-B and exploits
/// in Fig 6a (rho0 = 10$ there vs rho0 = eps = 2$ in Fig 6b): a larger
/// level-0 separator cuts active checkpoints (bytes) and rounds, at the cost
/// of a larger worst-case validity relaxation max(rho0, delta).

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "stats/summary.hpp"

using namespace delphi;
using namespace delphi::bench;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const std::size_t n = quick ? 16 : 40;

  print_title("Ablation — rho0 sweep (validity relaxation vs cost)",
              "oracle workload delta = 20$, Delta = 2000$, eps = 2$; "
              "measured distance from the honest average quantifies the "
              "relaxation actually paid.");

  const std::vector<int> w = {10, 10, 12, 12, 14, 18};
  print_row({"rho0", "levels", "rounds", "MB", "runtime_ms",
             "|out - honest avg|"},
            w);

  const auto inputs = clustered_inputs(n, 40'000.0, 20.0, 77);
  const auto s = stats::summarize(inputs);

  std::vector<protocol::DelphiParams> params;
  std::vector<scenario::ScenarioSpec> specs;
  for (double rho0 : {2.0, 10.0, 50.0, 250.0, 2000.0}) {
    auto& p = params.emplace_back(protocol::DelphiParams::oracle_network());
    p.rho0 = rho0;
    specs.push_back(delphi_spec(Testbed::kAws, n, 5, p, inputs));
  }
  const auto results = scenario::SweepRunner().run(specs);

  for (std::size_t k = 0; k < params.size(); ++k) {
    const auto& p = params[k];
    const auto& r = results[k];
    const double dist =
        r.outputs.empty() ? -1.0 : std::fabs(r.outputs.front() - s.mean);
    print_row({fmt(p.rho0, 0), std::to_string(p.num_levels()),
               std::to_string(p.r_max(n)), fmt(r.megabytes(), 2),
               fmt(r.runtime_ms, 0), fmt(dist, 2) + "$"},
              w);
    if (!r.ok) std::printf("  !! run did not terminate\n");
  }
  std::printf(
      "\npaper discussion: rho0 = Delta guarantees termination in one level "
      "but pays up to Delta of relaxation; small rho0 minimizes relaxation "
      "but costs rounds/bytes. Fig 6a picks rho0 = 10$ as the middle "
      "ground.\n");
  return 0;
}
