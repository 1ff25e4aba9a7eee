#pragma once
/// \file registry.hpp
/// ProtocolRegistry — name → "how to run this protocol suite anywhere".
///
/// Each entry packages the three substrate-facing hooks a protocol needs:
///   * a factory building per-node protocol instances from a ScenarioSpec
///     (shared deployment state — common coins, key stores, attestors — is
///     owned by closures captured inside the returned net::ProtocolFactory);
///   * the TCP payload `Decoder` recovering typed messages from bytes
///     (the per-suite channel→message-type mapping, transport/decoders.hpp);
///   * an output harvester appending a node's decided value(s) to the run's
///     output vector (ValueOutput for scalar protocols, all coordinates for
///     vector protocols, the decoded payload for RBC, 0/1 for binary BA).
///
/// Built-in suites (registered on first access of global()): delphi, binaa,
/// abraham, dolev, benor, aba, rbc, acs (alias: fin), multidim, dora.
/// Applications may add their own entries; registration must happen before
/// the registry is used concurrently (e.g. before a parallel sweep starts).

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.hpp"
#include "scenario/spec.hpp"
#include "transport/tcp.hpp"

namespace delphi::scenario {

/// Appends node's output value(s) — zero or more doubles — to `out`.
using OutputHarvester =
    std::function<void(const net::Protocol&, std::vector<double>&)>;

/// One registered protocol suite.
struct ProtocolInfo {
  /// Build the per-node factory. `spec.t` is already resolved (never
  /// kAutoFaults) and `inputs` has exactly spec.n entries. The returned
  /// factory must stay alive for the whole run (it may own shared state).
  std::function<net::ProtocolFactory(const ScenarioSpec& spec,
                                     std::vector<double> inputs)>
      make_factory;

  /// TCP payload decoder for this suite.
  std::function<transport::Decoder(const ScenarioSpec& spec)> make_decoder;

  /// Harvest a node's outputs. Defaults (when null) to reading
  /// net::ValueOutput.
  OutputHarvester harvest;

  /// Default fault bound for system size n when spec.t == kAutoFaults.
  /// Defaults (when null) to max_faults(n) = (n-1)/3.
  std::function<std::size_t(std::size_t n)> default_faults;

  /// Parameter keys this suite reads from spec.params, beyond the universal
  /// substrate knobs (scenario::universal_param_keys()). Advertising them
  /// lets ScenarioSpec::validate_params reject typo'd keys ("crashs=2")
  /// instead of silently swallowing them.
  std::vector<std::string> param_keys;
};

class ProtocolRegistry {
 public:
  /// The process-wide registry, with all built-in suites pre-registered.
  static ProtocolRegistry& global();

  /// Register a suite; throws ConfigError on duplicate names. Null harvest /
  /// default_faults hooks are filled with the documented defaults.
  void add(std::string name, ProtocolInfo info);

  /// nullptr if `name` is not registered.
  const ProtocolInfo* find(std::string_view name) const;

  /// Like find(), but throws ConfigError naming the known protocols.
  const ProtocolInfo& require(std::string_view name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, ProtocolInfo, std::less<>> entries_;
};

/// Default CPU charge per threshold-coin toss on a testbed — the stand-in
/// for the O(n) pairing bill of a real common coin (README.md
/// "Substitutions"): a Cachin
/// coin verifies a quorum of ~n/3+1 shares, one pairing each, at ~0.25 ms
/// (t2.micro x86) / ~4 ms (Pi 4) per pairing. Zero on the free-CPU testbeds.
SimTime default_coin_cost(TestbedKind tb, std::size_t n);

}  // namespace delphi::scenario
