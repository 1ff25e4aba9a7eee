#include "scenario/registry.hpp"

#include <memory>
#include <utility>

#include "aba/aba.hpp"
#include "abraham/abraham.hpp"
#include "acs/acs.hpp"
#include "benor/benor.hpp"
#include "binaa/protocol.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "crypto/certificate.hpp"
#include "crypto/coin.hpp"
#include "delphi/delphi.hpp"
#include "dolev/dolev.hpp"
#include "multidim/vector_delphi.hpp"
#include "oracle/dora.hpp"
#include "rbc/rbc.hpp"
#include "transport/decoders.hpp"

namespace delphi::scenario {

namespace {

/// Deployment-wide coin seed (matches the historical bench_util constant so
/// FIN/ACS runs through the scenario API reproduce the bench figures
/// bit-for-bit).
constexpr std::uint64_t kDefaultCoinSeed = 0xF1A5C0;

/// Ceiling on `rounds` and `dims`, which size per-round and per-dimension
/// state up front: far above any configuration in use (at most 10).
constexpr std::int64_t kMaxStateCount = 1'000;

/// Seeds travel as doubles, which hold every integer up to 2^53 exactly.
constexpr std::int64_t kMaxSeed = std::int64_t{1} << 53;

/// Ceiling on a simulated compute charge: an hour per operation, in µs.
constexpr std::int64_t kMaxComputeUs = 3'600'000'000;

/// Delphi-family parameter block from the spec's params (AWS-figure
/// defaults; every knob overridable per spec).
protocol::DelphiParams delphi_params(const ScenarioSpec& spec) {
  protocol::DelphiParams p;
  p.space_min = spec.param("space-min", 0.0);
  p.space_max = spec.param("space-max", 200'000.0);
  p.rho0 = spec.param("rho0", 10.0);
  p.eps = spec.param("eps", 2.0);
  p.delta_max = spec.param("delta-max", 2'000.0);
  return p;
}

/// The common coin's seed and its simulated per-flip cost (aba, acs).
std::uint64_t coin_seed(const ScenarioSpec& spec) {
  return static_cast<std::uint64_t>(spec.int_param(
      "coin-seed", static_cast<std::int64_t>(kDefaultCoinSeed), 0, kMaxSeed));
}

SimTime coin_us(const ScenarioSpec& spec) {
  return spec.int_param("coin-us", default_coin_cost(spec.testbed, spec.n), 0,
                        kMaxComputeUs);
}

/// Binary-protocol input: is this node's reading above the workload center?
bool binary_input(const ScenarioSpec& spec, const std::vector<double>& inputs,
                  NodeId i) {
  return inputs[i] >= spec.center;
}

void harvest_value_output(const net::Protocol& p, std::vector<double>& out) {
  if (const auto* vo = dynamic_cast<const net::ValueOutput*>(&p)) {
    if (const auto v = vo->output_value()) out.push_back(*v);
  }
}

ProtocolInfo make_delphi_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    protocol::DelphiProtocol::Config c;
    c.n = spec.n;
    c.t = spec.t;
    c.params = delphi_params(spec);
    return [c, inputs = std::move(inputs)](NodeId i) {
      return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::delphi();
  };
  info.param_keys = {"space-min", "space-max", "rho0", "eps", "delta-max"};
  return info;
}

ProtocolInfo make_binaa_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    binaa::BinAaProtocol::Config c;
    c.core.n = spec.n;
    c.core.t = spec.t;
    c.core.r_max =
        static_cast<std::uint32_t>(spec.int_param("r-max", 10, 1, 62));
    // The compact VAL codec exists only in the simulator's byte accounting
    // (serialize() still writes the plain form) and needs FIFO links.
    c.compact = spec.param("compact", 0.0) != 0.0;
    if (c.compact && (spec.substrate != Substrate::kSim ||
                      spec.param("fifo", 0.0) == 0.0)) {
      throw ConfigError(
          "binaa: compact=1 runs only with substrate=sim fifo=1 (the compact "
          "codec is accounted, not written, and needs FIFO links)");
    }
    std::vector<bool> bits(spec.n);
    for (NodeId i = 0; i < spec.n; ++i) bits[i] = binary_input(spec, inputs, i);
    return [c, bits = std::move(bits)](NodeId i) {
      return std::make_unique<binaa::BinAaProtocol>(c, bits[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::binaa();
  };
  info.param_keys = {"r-max", "compact"};
  return info;
}

ProtocolInfo make_abraham_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    abraham::AbrahamProtocol::Config c;
    c.n = spec.n;
    c.t = spec.t;
    c.rounds = static_cast<std::uint32_t>(
        spec.int_param("rounds", 10, 1, kMaxStateCount));
    c.space_min = spec.param("space-min", 0.0);
    c.space_max = spec.param("space-max", 200'000.0);
    return [c, inputs = std::move(inputs)](NodeId i) {
      return std::make_unique<abraham::AbrahamProtocol>(c, inputs[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec& spec) {
    return transport::decoders::abraham(spec.n);
  };
  info.param_keys = {"rounds", "space-min", "space-max"};
  return info;
}

ProtocolInfo make_dolev_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    dolev::DolevProtocol::Config c;
    c.n = spec.n;
    c.t = spec.t;
    c.rounds = static_cast<std::uint32_t>(
        spec.int_param("rounds", 10, 1, kMaxStateCount));
    c.space_min = spec.param("space-min", -1e18);
    c.space_max = spec.param("space-max", 1e18);
    return [c, inputs = std::move(inputs)](NodeId i) {
      return std::make_unique<dolev::DolevProtocol>(c, inputs[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::dolev();
  };
  info.default_faults = [](std::size_t n) {
    return dolev::DolevProtocol::max_faults_5t(n);
  };
  info.param_keys = {"rounds", "space-min", "space-max"};
  return info;
}

ProtocolInfo make_benor_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    benor::BenOrProtocol::Config c;
    c.n = spec.n;
    c.t = spec.t;
    // Rounds are allocated as they are reached; the budget only needs a
    // ceiling well above its default.
    c.max_rounds = static_cast<std::uint32_t>(
        spec.int_param("max-rounds", 4096, 1, 65'536));
    std::vector<bool> bits(spec.n);
    for (NodeId i = 0; i < spec.n; ++i) bits[i] = binary_input(spec, inputs, i);
    return [c, bits = std::move(bits)](NodeId i) {
      return std::make_unique<benor::BenOrProtocol>(c, bits[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::benor();
  };
  info.default_faults = [](std::size_t n) { return (n - 1) / 5; };
  info.param_keys = {"max-rounds"};
  return info;
}

ProtocolInfo make_aba_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    auto coin = std::make_shared<crypto::CommonCoin>(coin_seed(spec));
    aba::AbaInstance::Config c;
    c.n = spec.n;
    c.t = spec.t;
    c.instance_id = spec.seed;
    c.coin = coin.get();
    c.coin_compute_us = coin_us(spec);
    std::vector<bool> bits(spec.n);
    for (NodeId i = 0; i < spec.n; ++i) bits[i] = binary_input(spec, inputs, i);
    return [c, coin, bits = std::move(bits)](NodeId i) {
      return std::make_unique<aba::AbaProtocol>(c, bits[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::aba();
  };
  info.harvest = [](const net::Protocol& p, std::vector<double>& out) {
    if (const auto* ap = dynamic_cast<const aba::AbaProtocol*>(&p)) {
      if (ap->instance().decided()) {
        out.push_back(ap->instance().decision() ? 1.0 : 0.0);
      }
    }
  };
  info.param_keys = {"coin-seed", "coin-us"};
  return info;
}

ProtocolInfo make_rbc_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    rbc::RbcInstance::Config c;
    c.n = spec.n;
    c.t = spec.t;
    const double b = spec.param("broadcaster", 0.0);
    if (b < 0.0 || b >= static_cast<double>(spec.n)) {
      throw ConfigError("rbc: broadcaster must be in 0..n-1");
    }
    c.broadcaster = static_cast<NodeId>(b);
    // The broadcaster disseminates its own input, encoded as IEEE-754 bytes;
    // the harvester decodes it back, so RBC plugs into the same real-valued
    // output channel as the agreement protocols.
    ByteWriter w;
    w.f64(inputs[c.broadcaster]);
    auto payload = w.data();
    return [c, payload](NodeId) {
      return std::make_unique<rbc::RbcProtocol>(c, payload);
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::rbc();
  };
  info.harvest = [](const net::Protocol& p, std::vector<double>& out) {
    if (const auto* rp = dynamic_cast<const rbc::RbcProtocol*>(&p)) {
      if (rp->instance().delivered()) {
        ByteReader r(rp->instance().value());
        out.push_back(r.f64());
      }
    }
  };
  info.param_keys = {"broadcaster"};
  return info;
}

ProtocolInfo make_acs_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    auto coin = std::make_shared<crypto::CommonCoin>(coin_seed(spec));
    acs::AcsProtocol::Config c;
    c.n = spec.n;
    c.t = spec.t;
    c.coin = coin.get();
    c.coin_compute_us = coin_us(spec);
    c.session = spec.seed;
    return [c, coin, inputs = std::move(inputs)](NodeId i) {
      return std::make_unique<acs::AcsProtocol>(c, inputs[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec& spec) {
    return transport::decoders::acs(spec.n);
  };
  info.param_keys = {"coin-seed", "coin-us"};
  return info;
}

ProtocolInfo make_multidim_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    const auto dims = static_cast<std::size_t>(
        spec.int_param("dims", 2, 1, kMaxStateCount));
    auto c = multidim::VectorDelphiProtocol::Config::uniform(
        spec.n, spec.t, delphi_params(spec), dims);
    // Every coordinate observes the node's scalar reading (a d-way
    // replicated sensor) — scenario workloads are scalar streams.
    return [c, dims, inputs = std::move(inputs)](NodeId i) {
      return std::make_unique<multidim::VectorDelphiProtocol>(
          c, std::vector<double>(dims, inputs[i]));
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::delphi();
  };
  info.harvest = [](const net::Protocol& p, std::vector<double>& out) {
    if (const auto* vp = dynamic_cast<const multidim::VectorOutput*>(&p)) {
      if (const auto v = vp->output_vector()) {
        out.insert(out.end(), v->begin(), v->end());
      }
    }
  };
  info.param_keys = {"dims", "space-min", "space-max", "rho0", "eps", "delta-max"};
  return info;
}

ProtocolInfo make_dora_info() {
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec& spec,
                         std::vector<double> inputs) -> net::ProtocolFactory {
    // Deployment key material + attestation session, both derived from the
    // spec seed (the "DKG" the substitution model does not run).
    auto keys = std::make_shared<crypto::KeyStore>(
        static_cast<std::uint64_t>(
            spec.int_param("keys-seed", 99, 0, kMaxSeed)),
        spec.n);
    auto attestor = std::make_shared<crypto::Attestor>(*keys, spec.seed);
    oracle::DoraProtocol::Config c;
    c.delphi.n = spec.n;
    c.delphi.t = spec.t;
    c.delphi.params = delphi_params(spec);
    c.attestor = attestor.get();
    c.sign_compute_us = spec.int_param("sign-us", 0, 0, kMaxComputeUs);
    c.verify_compute_us = spec.int_param("verify-us", 0, 0, kMaxComputeUs);
    return [c, keys, attestor, inputs = std::move(inputs)](NodeId i) {
      return std::make_unique<oracle::DoraProtocol>(c, inputs[i]);
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::dora();
  };
  info.param_keys = {"keys-seed", "sign-us", "verify-us", "space-min", "space-max", "rho0", "eps", "delta-max"};
  return info;
}

void register_builtins(ProtocolRegistry& reg) {
  reg.add("delphi", make_delphi_info());
  reg.add("binaa", make_binaa_info());
  reg.add("abraham", make_abraham_info());
  reg.add("dolev", make_dolev_info());
  reg.add("benor", make_benor_info());
  reg.add("aba", make_aba_info());
  reg.add("rbc", make_rbc_info());
  reg.add("acs", make_acs_info());
  reg.add("fin", make_acs_info());  // the paper's name for the ACS baseline
  reg.add("multidim", make_multidim_info());
  reg.add("dora", make_dora_info());
}

}  // namespace

ProtocolRegistry& ProtocolRegistry::global() {
  static ProtocolRegistry* reg = [] {
    auto* r = new ProtocolRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

void ProtocolRegistry::add(std::string name, ProtocolInfo info) {
  if (name.empty()) throw ConfigError("registry: empty protocol name");
  if (!info.make_factory || !info.make_decoder) {
    throw ConfigError("registry: '" + name +
                      "' needs make_factory and make_decoder");
  }
  if (!info.harvest) info.harvest = harvest_value_output;
  if (!info.default_faults) {
    info.default_faults = [](std::size_t n) { return max_faults(n); };
  }
  const auto [it, inserted] = entries_.emplace(std::move(name), std::move(info));
  if (!inserted) {
    throw ConfigError("registry: duplicate protocol '" + it->first + "'");
  }
}

const ProtocolInfo* ProtocolRegistry::find(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

const ProtocolInfo& ProtocolRegistry::require(std::string_view name) const {
  if (const auto* info = find(name)) return *info;
  std::string known;
  for (const auto& [k, v] : entries_) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  throw ConfigError("registry: unknown protocol '" + std::string(name) +
                    "' (known: " + known + ")");
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : entries_) out.push_back(k);
  return out;
}

SimTime default_coin_cost(TestbedKind tb, std::size_t n) {
  // A Cachin-style coin costs ~n/3+1 share verifications, one pairing each.
  // Pairings run ~0.25 ms on t2.micro-class x86 and ~4 ms on Cortex-A72
  // (Raspberry Pi 4) — the three-orders-over-symmetric-crypto cost the paper
  // cites in §I. The free-CPU correctness testbeds charge nothing.
  double per_pairing_us = 0.0;
  switch (tb) {
    case TestbedKind::kAws:
      per_pairing_us = 250.0;
      break;
    case TestbedKind::kCps:
      per_pairing_us = 4000.0;
      break;
    case TestbedKind::kAsync:
    case TestbedKind::kFast:
      return 0;
  }
  return static_cast<SimTime>(per_pairing_us *
                              (static_cast<double>(n) / 3.0 + 1.0));
}

}  // namespace delphi::scenario
