/// Ablation: BinAA's plain value codec vs the paper's compact VAL move-code
/// encoding (§II-C). The compact codec shrinks each echo to kind+move-byte
/// plus the round number — the paper's
/// O(n² log(1/e) loglog(1/e)) refinement over O(n² log²(1/e)).

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

std::uint64_t run_binaa_bytes(std::size_t n, std::uint32_t r_max, bool compact,
                              std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.protocol = "binaa";
  spec.testbed = Testbed::kAws;
  spec.n = n;
  spec.seed = seed;
  spec.params["r-max"] = r_max;
  if (compact) {
    spec.params["compact"] = 1;
    spec.params["fifo"] = 1;  // the delta codec requires FIFO links
  }
  // Split inputs: a node's bit is inputs[i] >= center, 1 on even ids.
  spec.center = 0.5;
  for (NodeId i = 0; i < n; ++i) spec.inputs.push_back(i % 2 == 0 ? 1.0 : 0.0);
  const auto rep = scenario::SimRuntime().run(spec);
  return rep.ok ? rep.honest_bytes : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Ablation — BinAA plain vs compact (VAL) codec",
              "bytes for one BinAA instance (split inputs) across rounds; "
              "compact mode uses FIFO links + 3-bit move codes.");

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 40};
  const std::vector<int> w = {8, 10, 14, 14, 10};
  print_row({"n", "rounds", "plain_bytes", "compact_bytes", "saving"}, w);

  for (std::size_t n : sizes) {
    for (std::uint32_t r_max : {8u, 16u, 24u}) {
      const auto plain = run_binaa_bytes(n, r_max, false, 3);
      const auto compact = run_binaa_bytes(n, r_max, true, 3);
      print_row({std::to_string(n), std::to_string(r_max),
                 fmt_int(plain), fmt_int(compact),
                 fmt(100.0 * (1.0 - static_cast<double>(compact) /
                                        static_cast<double>(plain)),
                     1) + "%"},
                w);
    }
  }
  std::printf(
      "\nnote: with 32-byte HMAC tags dominating small frames, payload "
      "savings are bounded; disable auth to see the raw codec effect.\n");
  return 0;
}
