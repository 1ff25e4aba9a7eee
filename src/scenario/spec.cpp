#include "scenario/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "scenario/registry.hpp"

namespace delphi::scenario {

namespace {

/// Round-trip-exact double formatting: shortest %.17g form is parsed back to
/// the identical bit pattern by strtod.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips (keeps specs readable).
  char short_buf[64];
  std::snprintf(short_buf, sizeof(short_buf), "%g", v);
  if (std::strtod(short_buf, nullptr) == v) return short_buf;
  return buf;
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw ConfigError("scenario: '" + key + "' expects a number, got '" +
                      value + "'");
  }
  // ERANGE covers both overflow (±HUGE_VAL) and subnormal underflow; only
  // overflow is a lie about the value's magnitude.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    throw ConfigError("scenario: '" + key + "' overflows a double: '" + value +
                      "'");
  }
  if (std::isnan(v)) {
    throw ConfigError("scenario: '" + key + "' must not be nan");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  // strtoull silently negates a leading '-' (n=-3 wraps to ~2^64): reject
  // signs up front so only plain digit strings pass.
  if (value.empty() || !(value[0] >= '0' && value[0] <= '9')) {
    throw ConfigError("scenario: '" + key +
                      "' expects a non-negative integer, got '" + value + "'");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw ConfigError("scenario: '" + key + "' expects an integer, got '" +
                      value + "'");
  }
  if (errno == ERANGE) {
    throw ConfigError("scenario: '" + key + "' overflows a 64-bit integer: '" +
                      value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// Split a fault-field value on ':' — "crash-after:5:2" -> {crash-after,5,2}.
std::vector<std::string> split_colon(const std::string& value) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto colon = value.find(':', start);
    parts.push_back(value.substr(start, colon - start));
    if (colon == std::string::npos) return parts;
    start = colon + 1;
  }
}

[[noreturn]] void bad_adversary(const std::string& value) {
  throw ConfigError(
      "scenario: adversary must be none, random-delay:<max_us>, "
      "targeted-lag:<k>:<lag_us>, partition:<k>:<heal_us> or "
      "burst:<period_us>, got '" +
      value + "'");
}

[[noreturn]] void bad_byzantine(const std::string& value) {
  throw ConfigError(
      "scenario: byzantine must be none, crash-after:<sends>:<k> or "
      "garbage:<size>:<k>, got '" +
      value + "'");
}

[[noreturn]] void bad_churn(const std::string& value) {
  throw ConfigError(
      "scenario: churn must be <k>:<down_us>:<up_us> (or the fault-family "
      "spelling churn:<k>:<down_us>:<up_us>), got '" +
      value + "'");
}

}  // namespace

AdversarySpec parse_adversary(const std::string& value) {
  const auto parts = split_colon(value);
  AdversarySpec a;
  const std::string& name = parts[0];
  if (name == "none") {
    if (parts.size() != 1) bad_adversary(value);
    return a;
  }
  if (name == "random-delay" || name == "burst") {
    if (parts.size() != 2) bad_adversary(value);
    a.kind = name == "burst" ? AdversaryKind::kBurst
                             : AdversaryKind::kRandomDelay;
    a.us = parse_u64("adversary", parts[1]);
  } else if (name == "targeted-lag" || name == "partition") {
    if (parts.size() != 3) bad_adversary(value);
    a.kind = name == "partition" ? AdversaryKind::kPartition
                                 : AdversaryKind::kTargetedLag;
    a.k = parse_u64("adversary", parts[1]);
    a.us = parse_u64("adversary", parts[2]);
  } else {
    bad_adversary(value);
  }
  return a;
}

ByzantineSpec parse_byzantine(const std::string& value) {
  const auto parts = split_colon(value);
  ByzantineSpec b;
  const std::string& name = parts[0];
  if (name == "none") {
    if (parts.size() != 1) bad_byzantine(value);
    return b;
  }
  if (name == "crash-after" || name == "garbage") {
    if (parts.size() != 3) bad_byzantine(value);
    b.kind = name == "garbage" ? ByzantineKind::kGarbage
                               : ByzantineKind::kCrashAfter;
    b.param = parse_u64("byzantine", parts[1]);
    b.k = parse_u64("byzantine", parts[2]);
  } else {
    bad_byzantine(value);
  }
  return b;
}

ChurnSpec parse_churn(const std::string& value) {
  auto parts = split_colon(value);
  // Accept the fault-family spelling churn:<k>:<down>:<up> too.
  if (!parts.empty() && parts[0] == "churn") parts.erase(parts.begin());
  if (parts.size() != 3) bad_churn(value);
  ChurnSpec c;
  c.k = parse_u64("churn", parts[0]);
  c.down_us = parse_u64("churn", parts[1]);
  c.up_us = parse_u64("churn", parts[2]);
  return c;
}

std::string to_string(const AdversarySpec& a) {
  switch (a.kind) {
    case AdversaryKind::kNone:
      return "none";
    case AdversaryKind::kRandomDelay:
      return "random-delay:" + std::to_string(a.us);
    case AdversaryKind::kTargetedLag:
      return "targeted-lag:" + std::to_string(a.k) + ":" + std::to_string(a.us);
    case AdversaryKind::kPartition:
      return "partition:" + std::to_string(a.k) + ":" + std::to_string(a.us);
    case AdversaryKind::kBurst:
      return "burst:" + std::to_string(a.us);
  }
  return "none";
}

std::string to_string(const ByzantineSpec& b) {
  switch (b.kind) {
    case ByzantineKind::kNone:
      return "none";
    case ByzantineKind::kCrashAfter:
      return "crash-after:" + std::to_string(b.param) + ":" +
             std::to_string(b.k);
    case ByzantineKind::kGarbage:
      return "garbage:" + std::to_string(b.param) + ":" + std::to_string(b.k);
  }
  return "none";
}

const std::vector<std::string>& universal_param_keys() {
  static const std::vector<std::string> keys = {
      "auth",      "fifo",      "nodelay", "timeout-ms",
      "loss",      "loss-burst", "rate-kbps", "rto-ms"};
  return keys;
}

const char* to_string(Substrate s) noexcept {
  switch (s) {
    case Substrate::kSim:
      return "sim";
    case Substrate::kTcp:
      return "tcp";
    case Substrate::kUdp:
      return "udp";
  }
  return "?";
}

const char* to_string(MuxMode m) noexcept {
  switch (m) {
    case MuxMode::kConcurrent:
      return "concurrent";
    case MuxMode::kSequential:
      return "sequential";
  }
  return "?";
}

const char* to_string(TestbedKind tb) noexcept {
  switch (tb) {
    case TestbedKind::kAws:
      return "aws";
    case TestbedKind::kCps:
      return "cps";
    case TestbedKind::kAsync:
      return "async";
    case TestbedKind::kFast:
      return "fast";
  }
  return "?";
}

double ScenarioSpec::param(const std::string& key, double dflt) const {
  const auto it = params.find(key);
  return it == params.end() ? dflt : it->second;
}

std::int64_t ScenarioSpec::int_param(const std::string& key,
                                     std::int64_t dflt, std::int64_t lo,
                                     std::int64_t hi) const {
  const auto it = params.find(key);
  if (it == params.end()) return dflt;
  const double v = it->second;
  // Range-check as a double: converting an out-of-range value is undefined.
  if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) ||
      v != std::floor(v)) {
    throw ConfigError("scenario: " + key + " must be an integer in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "], got " + fmt_double(v));
  }
  return static_cast<std::int64_t>(v);
}

std::vector<double> ScenarioSpec::make_inputs() const {
  if (!inputs.empty()) {
    if (inputs.size() != n) {
      throw ConfigError("scenario: explicit inputs size " +
                        std::to_string(inputs.size()) + " != n " +
                        std::to_string(n));
    }
    return inputs;
  }
  return clustered_inputs(n, center, delta, seed + n);
}

void ScenarioSpec::validate() const {
  if (protocol.empty()) throw ConfigError("scenario: empty protocol name");
  if (n < 1) throw ConfigError("scenario: n must be >= 1");
  if (crashes >= n) throw ConfigError("scenario: crashes must be < n");
  // Wrap-free form of crashes + byzantine.k < n: a byzantine.k near 2^64
  // must not slip past the bound by overflowing the sum.
  if (byzantine.k >= n - crashes) {
    throw ConfigError("scenario: crashes + byzantine nodes must be < n");
  }
  if (adversary.kind == AdversaryKind::kTargetedLag ||
      adversary.kind == AdversaryKind::kPartition) {
    if (adversary.k < 1 || adversary.k >= n) {
      throw ConfigError(
          "scenario: adversary victim/group size k must be in 1..n-1");
    }
  }
  if (adversary.kind == AdversaryKind::kBurst && adversary.us < 1) {
    throw ConfigError("scenario: burst adversary period must be >= 1 us");
  }
  if (byzantine.kind == ByzantineKind::kGarbage && byzantine.param < 1) {
    throw ConfigError("scenario: garbage message size must be >= 1 byte");
  }
  for (const auto& c : churn) {
    if (c.k < 1) throw ConfigError("scenario: churn k must be >= 1");
    // Churned nodes are honest: placements stay below the top-id
    // crash/byzantine block (wrap-free bound like the one above).
    if (c.k > n - crashes - byzantine.k) {
      throw ConfigError(
          "scenario: churn k must be <= n - crashes - byzantine nodes "
          "(restarting nodes are honest)");
    }
    if (c.up_us <= c.down_us) {
      throw ConfigError("scenario: churn up_us must be > down_us");
    }
  }
  if (churn.size() > 1) {
    std::vector<ChurnSpec> sorted = churn;
    std::sort(sorted.begin(), sorted.end(),
              [](const ChurnSpec& a, const ChurnSpec& b) {
                return a.down_us < b.down_us;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].down_us < sorted[i - 1].up_us) {
        throw ConfigError("scenario: churn windows must be pairwise disjoint");
      }
    }
  }
  if (!inputs.empty() && inputs.size() != n) {
    throw ConfigError("scenario: explicit inputs size != n");
  }
  if (instances < 1) throw ConfigError("scenario: instances must be >= 1");
  // Each instance owns a 2^16-channel SessionMux window of the 32-bit
  // channel space, so 2^16 instances is the hard ceiling.
  if (instances > (std::size_t{1} << 16)) {
    throw ConfigError(
        "scenario: instances must be <= 65536 (each instance owns a "
        "2^16-channel window of the 32-bit channel space)");
  }
  // Netem shim knob ranges (substrate support is checked by the runtimes;
  // the ranges are wrong on every substrate).
  const double loss = param("loss", 0.0);
  if (loss < 0.0 || loss >= 1.0) {
    throw ConfigError("scenario: loss must be in [0, 1)");
  }
  if (param("loss-burst", 1.0) < 1.0) {
    throw ConfigError("scenario: loss-burst must be >= 1");
  }
  if (param("rate-kbps", 0.0) < 0.0) {
    throw ConfigError("scenario: rate-kbps must be >= 0");
  }
  if (param("rto-ms", 25.0) < 1.0) {
    throw ConfigError("scenario: rto-ms must be >= 1");
  }
}

namespace {

/// Classic O(|a|·|b|) Levenshtein distance — small strings only (key names).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = cur;
    }
  }
  return row[b.size()];
}

/// Fixed spec fields — candidates for "did you mean" on top of the
/// protocol's parameter keys (a typo'd fixed key lands in params too).
const std::vector<std::string>& fixed_spec_keys() {
  static const std::vector<std::string> keys = {
      "protocol",  "substrate", "testbed",  "n",         "t",
      "crashes",   "instances", "mux-mode", "adversary", "byzantine",
      "churn",     "churn-seed", "seed",    "center",    "delta",
      "inputs"};
  return keys;
}

}  // namespace

void ScenarioSpec::validate_params(const ProtocolRegistry& reg) const {
  const auto* info = reg.find(protocol);
  if (info == nullptr) return;  // require() reports unknown protocols
  std::vector<std::string> known = info->param_keys;
  known.insert(known.end(), universal_param_keys().begin(),
               universal_param_keys().end());
  for (const auto& [key, value] : params) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    // Suggest the closest known key (params, universal knobs, or a fixed
    // field the typo was probably aiming at).
    std::vector<std::string> candidates = known;
    candidates.insert(candidates.end(), fixed_spec_keys().begin(),
                      fixed_spec_keys().end());
    std::string best;
    std::size_t best_dist = std::string::npos;
    for (const auto& cand : candidates) {
      const auto d = edit_distance(key, cand);
      if (d < best_dist) {
        best_dist = d;
        best = cand;
      }
    }
    std::string msg = "scenario: unknown parameter '" + key +
                      "' for protocol '" + protocol + "'";
    if (best_dist <= 2) msg += " (did you mean '" + best + "'?)";
    std::sort(known.begin(), known.end());
    msg += "; valid keys:";
    for (const auto& k : known) msg += " " + k;
    throw ConfigError(msg);
  }
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream os;
  os << "protocol=" << protocol;
  os << " substrate=" << to_string(substrate);
  os << " testbed=" << to_string(testbed);
  os << " n=" << n;
  os << " t=";
  if (t == kAutoFaults) {
    os << "auto";
  } else {
    os << t;
  }
  os << " crashes=" << crashes;
  // Mux fields are omitted at their defaults so single-instance spec text
  // (and the goldens pinned to it) is reproduced byte-for-byte.
  if (instances != 1) os << " instances=" << instances;
  if (mux_mode != MuxMode::kConcurrent) {
    os << " mux-mode=" << to_string(mux_mode);
  }
  // Fault fields are omitted when inactive so pre-fault-plane spec text (and
  // the goldens pinned to it) is reproduced byte-for-byte.
  if (adversary.kind != AdversaryKind::kNone) {
    os << " adversary=" << to_string(adversary);
  }
  if (byzantine.kind != ByzantineKind::kNone) {
    os << " byzantine=" << to_string(byzantine);
  }
  // Churn entries are emitted as repeated keys (the value without the family
  // prefix; from_text appends each occurrence in order).
  for (const auto& c : churn) {
    os << " churn=" << c.k << ":" << c.down_us << ":" << c.up_us;
  }
  if (churn_seed != 0) os << " churn-seed=" << churn_seed;
  os << " seed=" << seed;
  os << " center=" << fmt_double(center);
  os << " delta=" << fmt_double(delta);
  for (const auto& [k, v] : params) os << " " << k << "=" << fmt_double(v);
  if (!inputs.empty()) {
    os << " inputs=";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (i > 0) os << ",";
      os << fmt_double(inputs[i]);
    }
  }
  return os.str();
}

ScenarioSpec ScenarioSpec::from_text(const std::string& text) {
  ScenarioSpec spec;
  spec.params.clear();
  std::istringstream is(text);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError("scenario: expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "protocol") {
      spec.protocol = value;
    } else if (key == "substrate") {
      if (value == "sim") {
        spec.substrate = Substrate::kSim;
      } else if (value == "tcp") {
        spec.substrate = Substrate::kTcp;
      } else if (value == "udp") {
        spec.substrate = Substrate::kUdp;
      } else {
        throw ConfigError(
            "scenario: substrate must be sim, tcp or udp, got '" + value +
            "'");
      }
    } else if (key == "testbed") {
      if (value == "aws") {
        spec.testbed = TestbedKind::kAws;
      } else if (value == "cps") {
        spec.testbed = TestbedKind::kCps;
      } else if (value == "async") {
        spec.testbed = TestbedKind::kAsync;
      } else if (value == "fast") {
        spec.testbed = TestbedKind::kFast;
      } else {
        throw ConfigError("scenario: unknown testbed '" + value + "'");
      }
    } else if (key == "n") {
      spec.n = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "t") {
      spec.t = value == "auto"
                   ? kAutoFaults
                   : static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "crashes") {
      spec.crashes = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "instances") {
      spec.instances = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "mux-mode") {
      if (value == "concurrent") {
        spec.mux_mode = MuxMode::kConcurrent;
      } else if (value == "sequential") {
        spec.mux_mode = MuxMode::kSequential;
      } else {
        throw ConfigError(
            "scenario: mux-mode must be concurrent or sequential, got '" +
            value + "'");
      }
    } else if (key == "adversary") {
      spec.adversary = parse_adversary(value);
    } else if (key == "byzantine") {
      spec.byzantine = parse_byzantine(value);
    } else if (key == "churn") {
      spec.churn.push_back(parse_churn(value));
    } else if (key == "churn-seed") {
      spec.churn_seed = parse_u64(key, value);
    } else if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "center") {
      spec.center = parse_double(key, value);
    } else if (key == "delta") {
      spec.delta = parse_double(key, value);
    } else if (key == "inputs") {
      spec.inputs.clear();
      std::stringstream ss(value);
      std::string item;
      while (std::getline(ss, item, ',')) {
        spec.inputs.push_back(parse_double(key, item));
      }
      if (spec.inputs.empty()) {
        throw ConfigError("scenario: inputs= list is empty");
      }
    } else {
      spec.params[key] = parse_double(key, value);
    }
  }
  spec.validate();
  // Typos must not silently vanish into params: hand-written text is checked
  // against the built-in registry (custom-registry protocols validate at run
  // time via the runtime's registry instead).
  spec.validate_params(ProtocolRegistry::global());
  return spec;
}

std::vector<double> clustered_inputs(std::size_t n, double center,
                                     double delta, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> inputs(n);
  if (n >= 2 && delta > 0.0) {
    inputs[0] = center - delta / 2.0;
    inputs[1] = center + delta / 2.0;
    for (std::size_t i = 2; i < n; ++i) {
      inputs[i] = center + (rng.uniform() - 0.5) * delta;
    }
    // Shuffle so the extremes are not always nodes 0/1.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(inputs[i - 1], inputs[rng.below(i)]);
    }
  } else {
    for (auto& v : inputs) v = center;
  }
  return inputs;
}

}  // namespace delphi::scenario
