/// Tests for BinAA (Algorithm 1): termination, binary validity, eps-agreement
/// with the exact dyadic arithmetic, behaviour under crash / equivocation /
/// garbage adversaries, the per-round range-halving property, and the
/// plain/compact codecs with the VAL delta-code reconstruction.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <deque>

#include "binaa/core.hpp"
#include "binaa/delta_codec.hpp"
#include "binaa/message.hpp"
#include "binaa/protocol.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::binaa {
namespace {

BinAaProtocol::Config proto_cfg(std::size_t n, std::uint32_t r_max) {
  BinAaProtocol::Config c;
  c.core = BinAaCore::Config{n, max_faults(n), r_max};
  return c;
}

struct BinAaParam {
  std::size_t n;
  std::uint32_t r_max;
  std::uint64_t seed;
  int pattern;  // 0 all-zero, 1 all-one, 2 split, 3 single-one
};

class BinAaSweep : public ::testing::TestWithParam<BinAaParam> {};

TEST_P(BinAaSweep, TerminationValidityAgreement) {
  const auto [n, r_max, seed, pattern] = GetParam();
  auto spec = test::adversarial_spec("binaa", n, seed);
  spec.params["r-max"] = r_max;
  test::set_bit_inputs(spec, [&](NodeId i) {
    switch (pattern) {
      case 0: return false;
      case 1: return true;
      case 2: return i % 2 == 1;
      default: return i == 0;
    }
  });
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  ASSERT_EQ(rep.outputs.size(), n);

  // eps-agreement with eps = 2^-r_max (exact dyadic arithmetic).
  const double eps = std::ldexp(1.0, -static_cast<int>(r_max));
  EXPECT_LE(test::spread(rep.outputs), eps);

  // Binary convex validity.
  for (double v : rep.outputs) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  if (pattern == 0) {
    for (double v : rep.outputs) EXPECT_EQ(v, 0.0);
  }
  if (pattern == 1) {
    for (double v : rep.outputs) EXPECT_EQ(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BinAaSweep,
    ::testing::Values(BinAaParam{4, 8, 1, 2}, BinAaParam{4, 8, 2, 3},
                      BinAaParam{4, 8, 3, 0}, BinAaParam{4, 8, 4, 1},
                      BinAaParam{7, 10, 5, 2}, BinAaParam{7, 10, 6, 3},
                      BinAaParam{7, 4, 7, 2}, BinAaParam{10, 12, 8, 2},
                      BinAaParam{13, 10, 9, 3}, BinAaParam{16, 8, 10, 2},
                      BinAaParam{7, 1, 11, 2}, BinAaParam{7, 20, 12, 2}),
    [](const auto& test_info) {
      return "n" + std::to_string(test_info.param.n) + "_r" +
             std::to_string(test_info.param.r_max) + "_s" +
             std::to_string(test_info.param.seed) + "_p" +
             std::to_string(test_info.param.pattern);
    });

TEST(BinAa, ToleratesCrashFaults) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 7;
    const std::set<NodeId> byz = {5, 6};  // t = 2 at the top ids
    sim::Simulator sim(test::adversarial_config(n, seed));
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) {
        sim.add_node(std::make_unique<sim::SilentProtocol>());
      } else {
        sim.add_node(
            std::make_unique<BinAaProtocol>(proto_cfg(n, 10), i % 2 == 0));
      }
    }
    sim.set_byzantine(byz);
    ASSERT_TRUE(sim.run()) << "seed " << seed;
    std::vector<double> outs;
    for (NodeId i = 0; i < n; ++i) {
      if (byz.contains(i)) continue;
      outs.push_back(*sim.node_as<BinAaProtocol>(i).output_value());
    }
    EXPECT_LE(test::spread(outs), std::ldexp(1.0, -10)) << "seed " << seed;
  }
}

TEST(BinAa, EquivocatorCannotBreakAgreementOrValidity) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t n = 7;
    const std::uint32_t r_max = 10;
    sim::Simulator sim(test::adversarial_config(n, seed));
    std::vector<bool> inputs = {false, true, false, true, false, true};
    for (NodeId i = 0; i + 1 < n; ++i) {
      sim.add_node(std::make_unique<BinAaProtocol>(proto_cfg(n, r_max),
                                                   inputs[i]));
    }
    sim.add_node(std::make_unique<test::BinAaEquivocator>(r_max, 0));
    sim.set_byzantine({static_cast<NodeId>(n - 1)});
    ASSERT_TRUE(sim.run()) << "seed " << seed;
    std::vector<double> outs;
    for (NodeId i = 0; i + 1 < n; ++i) {
      outs.push_back(*sim.node_as<BinAaProtocol>(i).output_value());
    }
    EXPECT_LE(test::spread(outs), std::ldexp(1.0, -10)) << "seed " << seed;
    for (double v : outs) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(BinAa, GarbageValuesIgnored) {
  // Feed the core non-dyadic / out-of-range echoes directly: they must not
  // perturb state or produce actions.
  BinAaCore core(BinAaCore::Config{4, 1, 8});
  std::vector<EchoAction> out;
  core.start(true, out);
  out.clear();
  core.on_echo(1, 1, /*non-dyadic=*/3, 1, out);              // granularity 256
  core.on_echo(1, 1, -5, 1, out);                            // negative
  core.on_echo(1, 1, core.scale() + 1, 1, out);              // above scale
  core.on_echo(1, 99, 0, 1, out);                            // bad round
  core.on_echo(7, 1, 0, 1, out);                             // bad kind
  core.on_echo(1, 1, 0, 99, out);                            // bad sender
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(core.current_round(), 1u);
}

TEST(BinAa, PerSenderEchoCapLimitsByzantineMultivoting) {
  BinAaCore core(BinAaCore::Config{4, 1, 4});
  std::vector<EchoAction> out;
  core.start(false, out);
  out.clear();
  // Sender 1 votes three distinct round-1 values; only two may count, and
  // neither can be amplified with t+1 = 2 senders (only sender 1 voted).
  core.on_echo(1, 1, 0, 1, out);
  core.on_echo(1, 1, core.scale(), 1, out);
  core.on_echo(1, 1, core.scale() / 2, 1, out);  // non-dyadic for r1 anyway
  EXPECT_TRUE(out.empty());
}

TEST(BinAa, RangeHalvesEachRound) {
  // Drive two synchronized honest cohorts and check the dyadic state spread
  // after each full exchange halves: outputs after r rounds differ by at most
  // scale / 2^r. We approximate by running with increasing r_max.
  double prev_spread = 1.1;
  for (std::uint32_t r_max : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto spec = test::async_spec("binaa", 4, 99);
    spec.params["r-max"] = r_max;
    test::set_bit_inputs(spec, [](NodeId i) { return i % 2 == 0; });
    const auto rep = scenario::SimRuntime().run(spec);
    ASSERT_TRUE(rep.ok);
    const double spread = test::spread(rep.outputs);
    EXPECT_LE(spread, std::ldexp(1.0, -static_cast<int>(r_max)));
    EXPECT_LE(spread, prev_spread);
    prev_spread = spread;
  }
}

TEST(BinAa, OutputsAreDyadicWithExpectedGranularity) {
  auto spec = test::async_spec("binaa", 7, 5);
  spec.params["r-max"] = 6;
  test::set_bit_inputs(spec, [](NodeId i) { return i < 3; });
  const auto rep = scenario::SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  for (double v : rep.outputs) {
    const double scaled = v * 64.0;  // 2^6
    EXPECT_EQ(scaled, std::floor(scaled));  // exact dyadic output
  }
}

TEST(BinAa, CompactCodecShrinksWire) {
  EchoMessage plain(1, 5, 1234, /*compact=*/false);
  EchoMessage compact(1, 5, 1234, /*compact=*/true);
  EXPECT_LT(compact.wire_size(), plain.wire_size());
}

TEST(BinAa, EchoCodecRoundTrip) {
  EchoMessage msg(2, 7, -42);
  ByteWriter w;
  msg.serialize(w);
  EXPECT_EQ(w.size(), msg.wire_size());
  ByteReader r(w.data());
  auto d = EchoMessage::decode(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(d->kind(), 2);
  EXPECT_EQ(d->round(), 7u);
  EXPECT_EQ(d->value(), -42);
}

TEST(BinAa, DeltaCodecReconstructsStateTrajectories) {
  // Property: for every node in a real BinAA run, the sequence of per-round
  // state values is losslessly transmissible as initial bit + 3-bit moves —
  // this justifies the compact codec's size accounting (paper §II-C).
  const std::size_t n = 7;
  const std::uint32_t r_max = 10;
  sim::Simulator sim(test::adversarial_config(n, 17));
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(std::make_unique<BinAaProtocol>(proto_cfg(n, r_max), i < 4));
  }
  ASSERT_TRUE(sim.run());
  // Reconstruct via a second, synchronized pair of encoders/decoders fed with
  // a synthetic legal trajectory derived from the final outputs: walk from
  // the initial value toward the final output with legal moves.
  for (NodeId i = 0; i < n; ++i) {
    const auto& core = sim.node_as<BinAaProtocol>(i).core();
    const ScaledValue scale = core.scale();
    DeltaEncoder enc(r_max);
    DeltaDecoder dec(r_max);
    ScaledValue value = (i < 4) ? scale : 0;
    EXPECT_EQ(dec.decode_initial(enc.encode_initial(value, scale), scale),
              value);
    // Legal trajectory: at round r the state may move by {-2..2} * g(r).
    Rng rng(i + 1);
    for (std::uint32_t r = 2; r <= r_max; ++r) {
      const ScaledValue unit = scale >> (r - 1);
      ScaledValue next = value + (rng.range(-2, 2)) * unit;
      next = std::clamp<ScaledValue>(next, 0, scale);
      const auto code = enc.encode(r, next, scale);
      ASSERT_TRUE(code.has_value());
      EXPECT_EQ(dec.decode(r, *code, scale), next);
      value = next;
    }
  }
}

TEST(BinAa, DeltaCodecRejectsIllegalMoves) {
  DeltaEncoder enc(8);
  const ScaledValue scale = 256;
  enc.encode_initial(0, scale);
  EXPECT_FALSE(enc.encode(2, 3 * (scale >> 1), scale).has_value());  // 3 steps
  EXPECT_FALSE(enc.encode(1, 0, scale).has_value());   // round too low
  EXPECT_FALSE(enc.encode(9, 0, scale).has_value());   // round too high
  EXPECT_FALSE(enc.encode(2, 1, scale).has_value());   // non-multiple
}

TEST(BinAa, ConfigValidation) {
  EXPECT_THROW(BinAaCore(BinAaCore::Config{3, 1, 8}), InternalError);
  EXPECT_THROW(BinAaCore(BinAaCore::Config{4, 1, 0}), InternalError);
  EXPECT_THROW(BinAaCore(BinAaCore::Config{4, 1, 63}), InternalError);
  // n and t are stored in 16 bits.
  EXPECT_THROW(BinAaCore(BinAaCore::Config{70'000, 1, 8}), InternalError);
}

TEST(BinAa, CoreObjectStaysNarrow) {
  // Delphi keeps every materialized core of every finished agreement, so
  // the object itself is the retained cost: narrow parameters, the state
  // value and one pointer to the running state.
  EXPECT_LE(sizeof(BinAaCore), 32u);
}

TEST(BinAa, OutputBeforeTerminationThrows) {
  BinAaCore core(BinAaCore::Config{4, 1, 8});
  EXPECT_THROW((void)core.output(), InternalError);
}

TEST(BinAa, FinishedCoreIgnoresEveryEcho) {
  // A finished core keeps only its output and round: every later echo, of
  // any kind, round, valid value and sender, must be a no-op. (Under the
  // ASan build this also catches a read of the released round state.)
  const std::size_t n = 4;
  const std::uint32_t r_max = 5;
  BinAaCore core(BinAaCore::Config{n, 1, r_max});
  std::vector<EchoAction> pending;
  core.start(true, pending);
  while (!pending.empty()) {
    const std::vector<EchoAction> batch = std::move(pending);
    pending.clear();
    for (const EchoAction& a : batch) {
      for (NodeId from = 0; from < n; ++from) {
        core.on_echo(a.kind, a.round, a.value, from, pending);
      }
    }
  }
  ASSERT_TRUE(core.done());
  const ScaledValue output = core.output_scaled();
  const std::uint32_t round = core.current_round();

  std::vector<EchoAction> out;
  for (std::uint8_t kind = 1; kind <= 2; ++kind) {
    for (std::uint32_t r = 1; r <= r_max; ++r) {
      const ScaledValue g = core.scale() >> (r - 1);
      for (ScaledValue v = 0; v <= core.scale(); v += g) {
        for (NodeId from = 0; from < n; ++from) {
          core.on_echo(kind, r, v, from, out);
        }
      }
    }
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(core.output_scaled(), output);
  EXPECT_EQ(core.current_round(), round);
  EXPECT_EQ(round, r_max + 1);
}

// ------------------------------------------------ adversarial core goldens --
//
// The sim goldens pin honest and crash runs only, so they never reach the
// core's Byzantine paths: more than two ECHO1/ECHO2 values in a round, more
// than two amplified values, duplicates, echoes for rounds ahead of the core
// and garbage. Each seed below drives one core (n = 10, t = 3, r_max = 6)
// through such a stream, looping the core's own echoes back from node 0, and
// pins every action it emitted plus where it ended.
//
// Regenerating after an *intentional* behaviour change:
//   ./build/binaa_test --gtest_also_run_disabled_tests
//       --gtest_filter='*RegenerateCoreGoldens*'   (one command line)
// then paste the printed kCoreGoldens initializer over the one below.

/// What one stream did to the core: an FNV-1a digest over every emitted
/// action tagged with the step that emitted it, the final round, and the
/// output (-1 when the stream ended before the core finished).
struct CoreTrace {
  std::uint64_t digest;
  std::uint32_t round;
  ScaledValue output;

  bool operator==(const CoreTrace&) const = default;
};

void fnv_mix(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

CoreTrace run_adversarial_stream(std::uint64_t seed) {
  constexpr std::size_t kN = 10;
  constexpr std::uint32_t kRMax = 6;
  constexpr std::size_t kSteps = 1200;
  BinAaCore core(BinAaCore::Config{kN, 3, kRMax});
  const ScaledValue scale = core.scale();
  Rng rng(seed);

  // Four clustered valid values per round (clamped, so some coincide): the
  // first is favoured, so quorums form and the core moves through rounds.
  std::vector<std::array<ScaledValue, 4>> cand(kRMax + 1);
  for (std::uint32_t r = 1; r <= kRMax; ++r) {
    const ScaledValue g = scale >> (r - 1);
    const auto base = static_cast<ScaledValue>(rng.below((1u << (r - 1)) + 1)) * g;
    const ScaledValue offs[4] = {0, g, -g, 2 * g};
    for (int c = 0; c < 4; ++c) {
      cand[r][c] = std::clamp<ScaledValue>(base + offs[c], 0, scale);
    }
  }

  std::deque<EchoAction> own;  // our echoes, looped back in order
  std::vector<EchoAction> out;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::size_t start_at = rng.below(40);  // some echoes arrive first
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step == start_at) {
      core.start(rng.coin(), out);
    } else if (!own.empty() && rng.below(3) == 0) {
      const EchoAction a = own.front();
      own.pop_front();
      core.on_echo(a.kind, a.round, a.value, 0, out);
    } else {
      const std::uint64_t k = rng.below(16);
      const auto kind = static_cast<std::uint8_t>(k == 0 ? 3 * rng.below(2)
                                                  : k < 10 ? 1 : 2);
      const std::uint32_t cur =
          std::clamp<std::uint32_t>(core.current_round(), 1, kRMax);
      const std::uint32_t round =
          rng.below(8) == 0
              ? static_cast<std::uint32_t>(rng.below(kRMax + 2))
              : static_cast<std::uint32_t>(std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(cur) + rng.range(-1, 2)));
      ScaledValue value = 0;
      const std::uint64_t pick = rng.below(20);
      if (pick == 0) {
        value = rng.range(-3, scale + 3);  // mostly garbage
      } else if (round >= 1 && round <= kRMax) {
        value = cand[round][pick < 15 ? 0 : pick < 17 ? 1 : pick % 2 + 2];
      }
      const auto from = static_cast<NodeId>(rng.below(kN + 1));
      core.on_echo(kind, round, value, from, out);
    }
    for (const EchoAction& a : out) {
      fnv_mix(h, step);
      fnv_mix(h, a.kind);
      fnv_mix(h, a.round);
      fnv_mix(h, static_cast<std::uint64_t>(a.value));
      own.push_back(a);
    }
    out.clear();
  }
  return {h, core.current_round(), core.done() ? core.output_scaled() : -1};
}

constexpr std::uint64_t kCoreGoldenSeeds = 50;

const std::vector<CoreTrace>& core_goldens() {
  static const std::vector<CoreTrace> kCoreGoldens = {
      {0x2e28cf168a0e5207ULL, 7, 8},
      {0x5ebca3acdf10a0c8ULL, 7, 14},
      {0x5306a2fec22aaf56ULL, 3, -1},
      {0xe8dddf95a2ad7869ULL, 6, -1},
      {0x5774498ce460b4adULL, 7, 50},
      {0x1796942c5b5ec286ULL, 7, 3},
      {0x44a1c67df6365fb5ULL, 7, 56},
      {0x2cdcc4adbe6a65baULL, 5, -1},
      {0xfe002e9c18e6c2ffULL, 6, -1},
      {0xb4f85d000070b086ULL, 5, -1},
      {0x5721390696cfc3e1ULL, 4, -1},
      {0x9dd3b6495d6eb8caULL, 5, -1},
      {0xb8048fdf9ad38d45ULL, 7, 27},
      {0xc2bd2c54284174c8ULL, 7, 50},
      {0xe25dff57d8fbe54bULL, 7, 12},
      {0x4f33016b49e5576aULL, 7, 46},
      {0xf72552776ad18926ULL, 7, 62},
      {0x3e2ef78e2b59fc40ULL, 7, 32},
      {0xf4677dd473064f0cULL, 6, -1},
      {0xf5afef374145447eULL, 7, 5},
      {0x389a1054824f2800ULL, 7, 0},
      {0xe119ecd450795d3bULL, 7, 20},
      {0x9ed34cb155583ac9ULL, 3, -1},
      {0xc73293c775f99e2aULL, 7, 10},
      {0x0e1b53bf66489486ULL, 6, -1},
      {0x3a4c92d1c3badae4ULL, 7, 39},
      {0x0297408e69c1e748ULL, 4, -1},
      {0x752e0d9324f246d2ULL, 3, -1},
      {0x44c6f1d3464eeb36ULL, 4, -1},
      {0xcf2b3332d038a3f3ULL, 7, 10},
      {0xa1b4139a313a3424ULL, 6, -1},
      {0x606af5b89eca1d75ULL, 3, -1},
      {0x5af72759e8bc5863ULL, 3, -1},
      {0x2396db34ece82510ULL, 3, -1},
      {0xdc736a9a89196df3ULL, 7, 3},
      {0xb3d1da1b6738d700ULL, 7, 30},
      {0x9601668c2cdf9e4bULL, 7, 18},
      {0xe6cd0ef5dff37880ULL, 3, -1},
      {0x2be086812b70c8d5ULL, 6, -1},
      {0x4de40c9e3c7a2767ULL, 2, -1},
      {0x0f0e01a4238a4c61ULL, 4, -1},
      {0x7e37e21eee66d78eULL, 7, 50},
      {0x75c4851d1eac4b26ULL, 3, -1},
      {0xee92306c53914364ULL, 5, -1},
      {0x787a043c742dbbf1ULL, 2, -1},
      {0xdc7e9ef047004cffULL, 4, -1},
      {0x88b3137baf2dc1f0ULL, 7, 22},
      {0xf95492c4dc36a479ULL, 4, -1},
      {0x9084badcf4505513ULL, 3, -1},
      {0x3e02497728980ed4ULL, 6, -1},
  };
  return kCoreGoldens;
}

TEST(BinAaCoreGolden, AdversarialStreamsEmitPinnedActions) {
  const auto& goldens = core_goldens();
  ASSERT_EQ(goldens.size(), kCoreGoldenSeeds);
  for (std::uint64_t seed = 1; seed <= kCoreGoldenSeeds; ++seed) {
    const CoreTrace got = run_adversarial_stream(seed);
    const CoreTrace& want = goldens[seed - 1];
    EXPECT_EQ(got.digest, want.digest) << "seed " << seed;
    EXPECT_EQ(got.round, want.round) << "seed " << seed;
    EXPECT_EQ(got.output, want.output) << "seed " << seed;
  }
}

TEST(BinAaCoreGolden, DISABLED_RegenerateCoreGoldens) {
  std::printf("  static const std::vector<CoreTrace> kCoreGoldens = {\n");
  for (std::uint64_t seed = 1; seed <= kCoreGoldenSeeds; ++seed) {
    const CoreTrace c = run_adversarial_stream(seed);
    std::printf("      {0x%016llxULL, %u, %lld},\n",
                static_cast<unsigned long long>(c.digest), c.round,
                static_cast<long long>(c.output));
  }
  std::printf("  };\n");
}

}  // namespace
}  // namespace delphi::binaa
