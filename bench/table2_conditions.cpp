/// Regenerates Table II: Delphi's measured communication and round counts
/// under the paper's (Delta, delta) input conditions:
///   1. Delta = O(eps),   delta = O(eps)   -> O(n² log(d/e)) bits
///   2. Delta = O(f(n)e), delta = O(eps)   -> O(n² (log(nD/e)+loglog f)) bits
///   3. Delta = O(f(n)e), delta = O(Delta) -> O(n³ ...) bits (worst case)

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

struct Condition {
  const char* name;
  double delta_max;  // Delta
  double delta;      // realized honest range
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Table II — Delphi communication/rounds under input conditions",
              "eps = 1; rho0 = eps; rounds = r_M reported by the protocol; "
              "bits are honest totals.");

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 40};

  for (std::size_t n : sizes) {
    const double eps = 1.0;
    const double fn = static_cast<double>(n);  // f(n) = n
    const std::vector<Condition> conditions = {
        {"Delta=O(e), delta=O(e)", 4.0 * eps, 2.0 * eps},
        {"Delta=O(f(n)e), delta=O(e)", fn * eps, 2.0 * eps},
        {"Delta=O(f(n)e), delta=O(Delta)", fn * eps, fn * eps / 2.0},
    };

    std::vector<protocol::DelphiParams> params;
    std::vector<scenario::ScenarioSpec> specs;
    for (const auto& c : conditions) {
      protocol::DelphiParams& p = params.emplace_back();
      p.space_min = 0.0;
      p.space_max = 10'000.0;
      p.rho0 = eps;
      p.eps = eps;
      p.delta_max = c.delta_max;
      const auto inputs = clustered_inputs(n, 5'000.0, c.delta, 3 + n);
      specs.push_back(delphi_spec(Testbed::kAws, n, 5, p, inputs));
    }
    const auto results = scenario::SweepRunner().run(specs);

    const std::vector<int> w = {34, 8, 10, 16, 14};
    std::printf("n = %zu\n", n);
    print_row({"condition", "rounds", "levels", "bits", "bits/n^2"}, w);
    for (std::size_t k = 0; k < conditions.size(); ++k) {
      const auto& p = params[k];
      const auto& r = results[k];
      // Round/level counts are static functions of the parameters.
      const auto rounds = p.r_max(n);
      const auto levels = p.num_levels();
      const double bits = r.megabytes() * 8e6;
      print_row({conditions[k].name, std::to_string(rounds),
                 std::to_string(levels), fmt(bits, 0),
                 fmt(bits / (static_cast<double>(n) * n), 0)},
                w);
      if (!r.ok) std::printf("  !! run did not terminate\n");
    }
    std::printf("\n");
  }
  std::printf(
      "paper shape: rounds grow with log(Delta/eps * n); per-n² bits grow "
      "with the realized range delta/rho0 (row 3 >> rows 1-2).\n");
  return 0;
}
