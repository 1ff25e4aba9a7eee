/// delphi_perf — the repo's end-to-end benchmark driver.
///
///   delphi_perf --workload NAME --seed S --seconds T --trace 0|1
///               [--results-dir DIR] [--git-head REV]
///
/// Runs one workload through the public runtimes (scenario::TcpRuntime,
/// UdpRuntime, SimRuntime) for T seconds, checks every agreement, writes a
/// result file (and, traced, a span file) into DIR, and prints as its last
/// line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// untraced, the per-layer metrics traced. perf/run.py builds and calls it;
/// perf/README.md defines every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "probe.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "transport/frame.hpp"

namespace delphi::perf {
namespace {

/// One named workload. Run m of a workload uses seed S + seed_stride * m; a
/// feed mesh consumes seeds S'..S'+instances-1 (one per agreement), so feeds
/// step by 1000 to keep meshes disjoint.
struct Workload {
  const char* name;
  const char* spec;
  std::uint64_t seed_stride;
};

constexpr Workload kWorkloads[] = {
    {"tcp-feed",
     "protocol=delphi substrate=tcp n=4 instances=250 mux-mode=sequential "
     "center=40000 delta=20 eps=2 rho0=10 auth=1",
     1000},
    {"udp-feed",
     "protocol=delphi substrate=udp n=4 instances=250 mux-mode=sequential rto-ms=200 "
     "center=40000 delta=20 eps=2 rho0=10 auth=1",
     1000},
    {"sim-cps-160",
     "protocol=delphi substrate=sim testbed=cps n=160 "
     "center=40000 delta=20 eps=2 rho0=10 auth=1",
     1},
    {"sim-aws-160-crash",
     "protocol=delphi substrate=sim testbed=aws n=160 crashes=53 "
     "center=40000 delta=20 eps=2 rho0=10 auth=1",
     1},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
  std::string results_dir = "build-perf/results";
  std::string git_head = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "delphi_perf: " << why
            << "\nusage: delphi_perf --workload NAME --seed S --seconds T "
               "--trace 0|1 [--results-dir DIR] [--git-head REV]\nworkloads:";
  for (const auto& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        for (const auto& w : kWorkloads) {
          if (value == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) usage("unknown workload " + value);
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.traced = value == "1";
      } else if (flag == "--results-dir") {
        o.results_dir = value;
      } else if (flag == "--git-head") {
        o.git_head = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---- JSON output --------------------------------------------------------------

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    separate();
    quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  const std::string& str() const noexcept { return out_; }

 private:
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << '\n';
  if (!f) throw Error("perf: cannot write " + path);
}

// ---- runs ---------------------------------------------------------------------

/// One Runtime::run() call and what the probe saw during it.
struct Run {
  std::uint64_t seed = 0;
  scenario::RunReport report;
  std::unique_ptr<RunProbe> probe;
  std::int64_t entry_ns = 0;
  std::int64_t return_ns = 0;
  std::int64_t first_open_ns = 0;
  std::int64_t last_decide_ns = 0;
  long heap_entry_kb = 0;
  /// Agreements that failed a check.
  std::size_t failed = 0;
  /// Per agreement: first honest open → last honest decide, and first →
  /// last honest decide (ms); only for agreements every honest node decided.
  std::vector<double> agree_ms;
  std::vector<double> skew_ms;
  double cpu_s = 0.0;

  double phase_s() const { return 1e-9 * static_cast<double>(last_decide_ns - first_open_ns); }
  double setup_s() const { return 1e-9 * static_cast<double>(first_open_ns - entry_ns); }
  double teardown_s() const { return 1e-9 * static_cast<double>(return_ns - last_decide_ns); }
};

std::unique_ptr<scenario::Runtime> make_runtime(
    scenario::Substrate s, const scenario::ProtocolRegistry* registry) {
  switch (s) {
    case scenario::Substrate::kTcp:
      return std::make_unique<scenario::TcpRuntime>(registry);
    case scenario::Substrate::kUdp:
      return std::make_unique<scenario::UdpRuntime>(registry);
    case scenario::Substrate::kSim:
      break;
  }
  return std::make_unique<scenario::SimRuntime>(registry);
}

/// Check every agreement of a run: each honest node decided, the honest
/// outputs are within eps of each other (ε-agreement), and they lie inside
/// Delphi's validity envelope [min - max(rho0, δ), max + max(rho0, δ)] of the
/// honest inputs, which are regenerated here from the spec rather than taken
/// from the runtime. Honest ids exclude the top `crashes` ids.
void check_run(const scenario::ScenarioSpec& spec, Run& r,
               std::vector<std::string>& errors) {
  const std::size_t honest = spec.n - spec.crashes;
  const double eps = spec.param("eps", 2.0);
  const double rho0 = spec.param("rho0", 10.0);
  const auto fail = [&](std::string why) {
    if (errors.size() < 20) {
      errors.push_back("seed " + std::to_string(r.seed) + ": " + std::move(why));
    }
  };

  std::string run_error;
  if (!r.report.ok) run_error = "not every honest node terminated";
  for (const auto& e : r.report.node_errors) {
    run_error = "node " + std::to_string(e.id) + " died: " + e.message;
  }
  for (const auto& c : r.report.nodes) {
    if (c.malformed_dropped != 0) run_error = "malformed frames dropped";
  }
  if (r.report.outputs.size() != honest * spec.instances) {
    run_error = "harvested " + std::to_string(r.report.outputs.size()) +
                " outputs, expected " + std::to_string(honest * spec.instances);
  }
  if (!run_error.empty()) {
    fail(run_error);
    r.failed = spec.instances;
    return;
  }

  for (std::uint32_t sid = 0; sid < spec.instances; ++sid) {
    const auto all_inputs = scenario::clustered_inputs(
        spec.n, spec.center, spec.delta, r.seed + spec.n + sid);
    const auto [in_lo, in_hi] =
        std::minmax_element(all_inputs.begin(), all_inputs.begin() + honest);
    const double relax = std::max(rho0, *in_hi - *in_lo);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    std::int64_t first_open = std::numeric_limits<std::int64_t>::max();
    std::int64_t first_decide = first_open;
    std::int64_t last_decide = 0;
    bool decided = true;
    for (NodeId i = 0; i < honest; ++i) {
      const auto& rec = r.probe->record(sid, i);
      if (rec.open_ns < 0 || rec.decide_ns < 0 || !rec.output) {
        decided = false;
        break;
      }
      lo = std::min(lo, *rec.output);
      hi = std::max(hi, *rec.output);
      first_open = std::min(first_open, rec.open_ns);
      first_decide = std::min(first_decide, rec.decide_ns);
      last_decide = std::max(last_decide, rec.decide_ns);
    }
    if (!decided) {
      fail("agreement " + std::to_string(sid) + " undecided");
      ++r.failed;
      continue;
    }
    r.agree_ms.push_back(1e-6 * static_cast<double>(last_decide - first_open));
    r.skew_ms.push_back(1e-6 * static_cast<double>(last_decide - first_decide));
    if (hi - lo > eps + 1e-9) {
      fail("agreement " + std::to_string(sid) + " spread " + std::to_string(hi - lo) +
           " > eps");
      ++r.failed;
    } else if (lo < *in_lo - relax - 1e-9 || hi > *in_hi + relax + 1e-9) {
      fail("agreement " + std::to_string(sid) + " output outside the validity envelope");
      ++r.failed;
    }
  }
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

Run run_once(const scenario::ScenarioSpec& base, std::uint64_t seed,
             bool traced, std::vector<std::string>& errors) {
  scenario::ScenarioSpec spec = base;
  spec.seed = seed;
  Run r;
  r.seed = seed;
  r.probe = std::make_unique<RunProbe>(
      seed, spec.n, spec.instances, traced,
      /*close_on_decide=*/spec.substrate != scenario::Substrate::kSim);
  const auto registry = probe_registry(*r.probe);
  const auto runtime = make_runtime(spec.substrate, &registry);
  r.heap_entry_kb = heap_in_use_kb();
  const double cpu0 = process_cpu_s();
  r.entry_ns = now_ns();
  r.report = runtime->run(spec);
  r.return_ns = now_ns();
  r.cpu_s = process_cpu_s() - cpu0;

  r.first_open_ns = r.return_ns;
  r.last_decide_ns = r.entry_ns;
  for (const auto& rec : r.probe->records) {
    if (rec.open_ns >= 0) r.first_open_ns = std::min(r.first_open_ns, rec.open_ns);
    if (rec.decide_ns >= 0) r.last_decide_ns = std::max(r.last_decide_ns, rec.decide_ns);
  }
  check_run(spec, r, errors);
  return r;
}

/// Median per-tag cost of transport::frame_tag on an authenticated frame
/// body carrying `payload_bytes` — the per-link MAC every socket send pays.
double hmac_tag_ns(std::size_t payload_bytes) {
  crypto::Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(7 * i + 1);
  }
  const crypto::HmacKey mac(key);
  const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
  const auto body = transport::encode_frame_body(1, payload, true);
  const int iters = payload_bytes <= 64 ? 20'000 : 2'000;
  volatile std::uint8_t sink = 0;
  std::vector<double> per_tag;
  for (int batch = 0; batch < 7; ++batch) {
    const auto t0 = now_ns();
    for (int i = 0; i < iters; ++i) sink = sink ^ transport::frame_tag(mac, *body)[0];
    per_tag.push_back(static_cast<double>(now_ns() - t0) / iters);
  }
  return median(per_tag);
}

// ---- metrics --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::vector<double> per_run(const std::vector<Run>& runs, double (*f)(const Run&)) {
  std::vector<double> v;
  for (const auto& r : runs) v.push_back(f(r));
  return v;
}

std::vector<double> pooled(const std::vector<Run>& runs,
                           std::vector<double> Run::*field) {
  std::vector<double> v;
  for (const auto& r : runs) v.insert(v.end(), (r.*field).begin(), (r.*field).end());
  return v;
}

std::size_t agreements(const std::vector<Run>& runs) {
  std::size_t a = 0;
  for (const auto& r : runs) a += r.probe->instances;
  return a;
}

/// Agreements ÷ Σ agreement-phase wall time.
double agreements_per_s(const std::vector<Run>& runs) {
  double phase_s = 0.0;
  for (const auto& r : runs) phase_s += r.phase_s();
  return ratio(static_cast<double>(agreements(runs)), phase_s);
}

/// The end-to-end metrics of the untraced run (BENCHMARK.json end_to_end).
/// Rates and per-agreement costs are ratios of totals over the run() calls.
std::vector<Metric> end_to_end(const std::vector<Run>& runs) {
  const auto a = static_cast<double>(agreements(runs));
  double cpu_s = 0.0, honest_bytes = 0.0, report_ms = 0.0;
  for (const auto& r : runs) {
    cpu_s += r.cpu_s;
    honest_bytes += static_cast<double>(r.report.honest_bytes);
    report_ms += r.report.runtime_ms;
  }
  const auto k = runs.size();
  const auto agree = pooled(runs, &Run::agree_ms);
  return {
      {"agreements_per_s", agreements_per_s(runs), "1/s", k},
      {"agree_ms_p50", median(agree), "ms", agree.size()},
      {"cpu_ms_per_agreement", 1e3 * cpu_s / a, "ms", k},
      {"honest_kb_per_agreement", honest_bytes / 1e3 / a, "KB", k},
      {"report_ms_per_agreement", report_ms / a, "ms", k},
      // A run's memory high point is while every instance is still alive.
      {"peak_rss_mb",
       median(per_run(runs, [](const Run& r) {
         return static_cast<double>(r.probe->rss_at_harvest_kb) / 1024.0;
       })),
       "MB", k},
      {"setup_s", median(per_run(runs, [](const Run& r) { return r.setup_s(); })), "s", k},
      // Interference only ever lengthens a teardown (freeing every instance
      // of the run); the fastest one is the steadiest estimate of its cost.
      {"teardown_s", quantile(per_run(runs, [](const Run& r) { return r.teardown_s(); }), 0.0),
       "s", k},
  };
}

/// Time of the threads hosting probed nodes over their agreement windows.
struct ThreadWindow {
  std::int64_t open_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t open_cpu_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t decide_ns = 0;
  std::int64_t decide_cpu_ns = 0;
  std::int64_t handler_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t decode_ns = 0;

  double wall() const { return static_cast<double>(decide_ns - open_ns); }
  double cpu() const { return static_cast<double>(decide_cpu_ns - open_cpu_ns); }
  /// CPU spent outside handlers, sends and decoding: recv, parse, MAC
  /// verify, writev and poll on sockets; the event engine on the simulator.
  double busy() const {
    return cpu() - static_cast<double>(handler_ns + send_ns + decode_ns);
  }
};

std::vector<ThreadWindow> thread_windows(const RunProbe& p) {
  std::map<std::size_t, ThreadWindow> by_thread;
  for (const auto& nt : p.nodes) {
    if (nt.first_open_ns < 0 || nt.last_decide_ns < 0) continue;
    auto& w = by_thread[nt.thread];
    w.open_ns = std::min(w.open_ns, nt.first_open_ns);
    w.open_cpu_ns = std::min(w.open_cpu_ns, nt.first_open_cpu_ns);
    w.decide_ns = std::max(w.decide_ns, nt.last_decide_ns);
    w.decide_cpu_ns = std::max(w.decide_cpu_ns, nt.last_decide_cpu_ns);
    w.handler_ns += nt.handler.sum_ns;
    w.send_ns += nt.send.sum_ns;
    w.decode_ns += nt.decode.sum_ns;
  }
  std::vector<ThreadWindow> out;
  for (const auto& [id, w] : by_thread) out.push_back(w);
  return out;
}

struct LayerTotals {
  double wall = 0, cpu = 0, handler = 0, send = 0, decode = 0, busy = 0;
  double min_busy_share = std::numeric_limits<double>::infinity();
  std::uint64_t handler_calls = 0, sends_timed = 0, decodes = 0;
  std::uint64_t deliveries = 0, post_decide = 0, sends = 0;
};

LayerTotals layer_totals(const std::vector<Run>& runs) {
  LayerTotals t;
  for (const auto& r : runs) {
    for (const auto& w : thread_windows(*r.probe)) {
      t.wall += w.wall();
      t.cpu += w.cpu();
      t.handler += static_cast<double>(w.handler_ns);
      t.send += static_cast<double>(w.send_ns);
      t.decode += static_cast<double>(w.decode_ns);
      t.busy += w.busy();
      t.min_busy_share = std::min(t.min_busy_share, ratio(w.busy(), w.wall()));
    }
    for (const auto& nt : r.probe->nodes) {
      t.handler_calls += nt.handler.count;
      t.sends_timed += nt.send.count;
      t.decodes += nt.decode.count;
      t.deliveries += nt.deliveries;
      t.post_decide += nt.post_decide_deliveries;
      t.sends += nt.sends;
    }
  }
  return t;
}

/// The per-layer metrics of the traced run (BENCHMARK.json per_layer).
std::vector<Metric> per_layer(const std::vector<Run>& runs, const LayerTotals& t,
                              double tag64_ns, double tag1k_ns) {
  const auto a = static_cast<double>(agreements(runs));
  const auto k = runs.size();
  double honest_msgs = 0.0;
  double honest_bytes = 0.0;
  for (const auto& r : runs) {
    honest_msgs += static_cast<double>(r.report.honest_msgs);
    honest_bytes += static_cast<double>(r.report.honest_bytes);
  }
  const auto skew = pooled(runs, &Run::skew_ms);
  const auto agree = pooled(runs, &Run::agree_ms);
  return {
      {"scenario.factory_ms",
       median(per_run(runs, [](const Run& r) { return 1e-6 * static_cast<double>(r.probe->factory_ns); })),
       "ms", k},
      {"scenario.harvest_ms",
       median(per_run(runs, [](const Run& r) { return 1e-6 * static_cast<double>(r.probe->harvest_ns); })),
       "ms", k},
      {"scenario.destroy_ms",
       median(per_run(runs, [](const Run& r) {
         return 1e3 * r.teardown_s() - 1e-6 * static_cast<double>(r.probe->harvest_ns);
       })),
       "ms", k},
      {"substrate.setup_ms",
       median(per_run(runs, [](const Run& r) {
         return 1e3 * r.setup_s() - 1e-6 * static_cast<double>(r.probe->factory_ns);
       })),
       "ms", k},
      {"net.send_us_per_broadcast", 1e-3 * ratio(t.send, static_cast<double>(t.sends_timed)),
       "us", t.sends_timed},
      {"net.broadcasts_per_agreement", static_cast<double>(t.sends) / a, "count", k},
      {"net.send_share", ratio(t.send, t.wall), "ratio", k},
      {"net.frames_per_agreement", honest_msgs / a, "count", k},
      {"net.bytes_per_frame", ratio(honest_bytes, honest_msgs), "B", k},
      {"delphi.handler_us_per_delivery",
       1e-3 * ratio(t.handler, static_cast<double>(t.handler_calls)), "us", t.handler_calls},
      {"delphi.handler_share", ratio(t.handler, t.wall), "ratio", k},
      {"delphi.deliveries_per_agreement", static_cast<double>(t.deliveries) / a, "count", k},
      {"delphi.post_decide_frac",
       ratio(static_cast<double>(t.post_decide), static_cast<double>(t.deliveries)), "ratio",
       t.deliveries},
      {"delphi.retained_kb_per_node_instance",
       median(per_run(runs, [](const Run& r) {
         // One harvested output per honest node-instance.
         return static_cast<double>(r.probe->heap_at_harvest_kb - r.heap_entry_kb) /
                static_cast<double>(r.report.outputs.size());
       })),
       "KB", k},
      {"substrate.busy_share", ratio(t.busy, t.wall), "ratio", k},
      {"substrate.busy_us_per_delivery",
       1e-3 * ratio(t.busy, static_cast<double>(t.deliveries)), "us", t.deliveries},
      {"substrate.wait_share", ratio(t.wall - t.cpu, t.wall), "ratio", k},
      {"scenario.decide_skew_ms_p50", median(skew), "ms", skew.size()},
      {"scenario.agree_ms_p99", quantile(agree, 0.99), "ms", agree.size()},
      {"crypto.hmac_tag_ns_64B", tag64_ns, "ns", 7},
      {"crypto.hmac_tag_ns_1KB", tag1k_ns, "ns", 7},
  };
}

/// Traced metrics that exist on only some workloads, so they stay out of
/// BENCHMARK.json (whose per-layer metrics every workload reports).
std::vector<Metric> workload_extras(const std::vector<Run>& runs, const LayerTotals& t,
                                    const Run& untraced, bool sim) {
  std::uint64_t malformed = 0, catchup = 0, sent = 0;
  for (const auto& r : runs) {
    for (const auto& c : r.report.nodes) {
      malformed += c.malformed_dropped;
      catchup += c.catchup_frames;
      sent += c.msgs_sent;
    }
  }
  const double engine_s = 1e-9 * (t.wall - t.handler);
  const auto k = runs.size();
  return {
      {"delphi.decode_us_per_frame", 1e-3 * ratio(t.decode, static_cast<double>(t.decodes)),
       "us", t.decodes},
      {"delphi.decode_share", ratio(t.decode, t.wall), "ratio", k},
      {"substrate.min_thread_busy_share", t.min_busy_share, "ratio", k},
      {"transport.malformed_dropped", static_cast<double>(malformed), "count", k},
      {"udp.retransmit_ratio", ratio(static_cast<double>(catchup), static_cast<double>(sent)),
       "ratio", k},
      {"sim.engine_self_s", sim ? engine_s / static_cast<double>(k) : 0.0, "s", k},
      {"sim.deliveries_per_engine_s",
       sim ? ratio(static_cast<double>(t.deliveries), engine_s) : 0.0, "1/s", k},
      // Same seed on both sides, so both runs do the same protocol work.
      {"trace.overhead_agreements_per_s", ratio(runs.front().phase_s(), untraced.phase_s()) - 1.0,
       "ratio", 1},
  };
}

// ---- output -----------------------------------------------------------------------

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    std::printf("  %-38s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void write_metrics(JsonWriter& j, const std::vector<Metric>& ms, bool with_samples) {
  j.begin_object();
  for (const auto& m : ms) {
    j.key(m.name).begin_object().key("value").value(m.value).key("unit").value(m.unit);
    if (with_samples) j.key("samples").value(static_cast<std::uint64_t>(m.samples));
    j.end_object();
  }
  j.end_object();
}

void write_histogram(JsonWriter& j, const Histogram& h) {
  j.begin_object().key("count").value(h.count).key("sum_ns").value(h.sum_ns);
  j.key("log2_ns").begin_array();
  std::size_t last = 0;
  for (std::size_t b = 0; b < h.log2_ns.size(); ++b) {
    if (h.log2_ns[b] != 0) last = b + 1;
  }
  for (std::size_t b = 0; b < last; ++b) j.value(h.log2_ns[b]);
  j.end_array().end_object();
}

/// Spans of a traced run: one per agreement (id mesh/sid) with one child per
/// honest node-instance from open to decide, plus per-node call statistics.
/// Times are µs since the first run() call.
void write_trace(const std::string& path, const Options& o,
                 const std::vector<Run>& runs, const std::vector<Metric>& layers) {
  JsonWriter j;
  const std::int64_t t0 = runs.front().entry_ns;
  const auto us = [t0](std::int64_t ns) { return static_cast<std::int64_t>((ns - t0) / 1000); };
  j.begin_object().key("workload").value(o.workload->name).key("seed").value(o.seed);
  j.key("metrics");
  write_metrics(j, layers, true);
  j.key("spans").begin_array();
  for (std::size_t m = 0; m < runs.size(); ++m) {
    const auto& p = *runs[m].probe;
    const std::size_t honest = runs[m].report.outputs.size() / p.instances;
    for (std::uint32_t sid = 0; sid < p.instances; ++sid) {
      std::int64_t open = std::numeric_limits<std::int64_t>::max();
      std::int64_t decide = 0;
      for (NodeId i = 0; i < honest; ++i) {
        open = std::min(open, p.record(sid, i).open_ns);
        decide = std::max(decide, p.record(sid, i).decide_ns);
      }
      j.begin_object()
          .key("id").value(std::to_string(m) + "/" + std::to_string(sid))
          .key("mesh").value(static_cast<std::uint64_t>(m))
          .key("sid").value(static_cast<std::uint64_t>(sid))
          .key("start_us").value(us(open))
          .key("end_us").value(us(decide));
      j.key("children").begin_array();
      for (NodeId i = 0; i < honest; ++i) {
        const auto& rec = p.record(sid, i);
        j.begin_object().key("node").value(static_cast<std::uint64_t>(i))
            .key("start_us").value(us(rec.open_ns))
            .key("end_us").value(us(rec.decide_ns)).end_object();
      }
      j.end_array().end_object();
    }
  }
  j.end_array();
  j.key("nodes").begin_array();
  for (std::size_t m = 0; m < runs.size(); ++m) {
    const auto& p = *runs[m].probe;
    for (NodeId i = 0; i < p.nodes.size(); ++i) {
      const auto& nt = p.nodes[i];
      if (nt.first_open_ns < 0) continue;
      j.begin_object().key("mesh").value(static_cast<std::uint64_t>(m))
          .key("node").value(static_cast<std::uint64_t>(i))
          .key("wall_us").value((nt.last_decide_ns - nt.first_open_ns) / 1000)
          .key("thread_cpu_us").value((nt.last_decide_cpu_ns - nt.first_open_cpu_ns) / 1000)
          .key("deliveries").value(nt.deliveries)
          .key("post_decide_deliveries").value(nt.post_decide_deliveries)
          .key("sends").value(nt.sends);
      j.key("handler");
      write_histogram(j, nt.handler);
      j.key("send");
      write_histogram(j, nt.send);
      j.key("decode");
      write_histogram(j, nt.decode);
      j.end_object();
    }
  }
  j.end_array().end_object();
  write_file(path, j.str());
}

int run_main(const Options& o) {
  const Workload& w = *o.workload;
  const auto base = scenario::ScenarioSpec::from_text(w.spec);
  const bool sim = base.substrate == scenario::Substrate::kSim;
  std::vector<std::string> errors;
  std::filesystem::create_directories(o.results_dir);

  // Calibrations first, outside every timed window.
  const double tag64 = hmac_tag_ns(64);
  const double tag1k = hmac_tag_ns(1024);

  // An untraced run of the first seed before the clock starts warms the
  // allocator and page tables, which a long-lived deployment pays once.
  const Run warmup = run_once(base, o.seed, false, errors);

  std::vector<Run> runs;
  const auto start = now_ns();
  for (std::uint64_t m = 0;; ++m) {
    runs.push_back(run_once(base, o.seed + w.seed_stride * m, o.traced, errors));
    if (1e-9 * static_cast<double>(now_ns() - start) >= o.seconds) break;
  }
  const double measured_s = 1e-9 * static_cast<double>(now_ns() - start);

  // Traced: the first seed once more untraced, now warm, as the reference
  // for the tracing overhead.
  std::optional<Run> reference;
  if (o.traced) reference = run_once(base, o.seed, false, errors);

  std::size_t attempted = warmup.probe->instances;
  std::size_t failed = warmup.failed;
  for (const Run& r : runs) {
    attempted += r.probe->instances;
    failed += r.failed;
  }
  if (reference) {
    attempted += reference->probe->instances;
    failed += reference->failed;
  }
  // On the simulator a traced run must reproduce the untraced RunReport of
  // the same seed exactly: the probe times, it does not perturb.
  const bool non_perturbing = !(o.traced && sim) || warmup.report == runs.front().report;
  if (!non_perturbing) {
    errors.push_back("traced and untraced RunReport differ at seed " +
                     std::to_string(o.seed));
  }
  const bool correct = failed == 0 && non_perturbing;

  const LayerTotals t = o.traced ? layer_totals(runs) : LayerTotals{};
  const auto metrics = o.traced ? per_layer(runs, t, tag64, tag1k) : end_to_end(runs);
  const auto extra =
      o.traced ? workload_extras(runs, t, *reference, sim) : std::vector<Metric>{};

  const char* mode = o.traced ? "traced" : "untraced";
  std::printf("workload %s seed %llu %s: %zu runs, %zu agreements in %.1f s after a warm-up run\n",
              w.name, static_cast<unsigned long long>(o.seed), mode, runs.size(),
              agreements(runs), measured_s);
  print_table(o.traced ? "per-layer metrics" : "end-to-end metrics", metrics);
  if (o.traced) {
    print_table("workload-specific layer metrics", extra);
    std::printf("where the node threads' agreement time goes (%s):\n", w.name);
    std::printf("  delphi handlers %5.1f%%  net send %5.1f%%  decode %5.1f%%  "
                "%s busy %5.1f%%  waiting %5.1f%%\n",
                100 * ratio(t.handler, t.wall), 100 * ratio(t.send, t.wall),
                100 * ratio(t.decode, t.wall), sim ? "sim engine" : "transport",
                100 * ratio(t.busy, t.wall), 100 * ratio(t.wall - t.cpu, t.wall));
    if (t.min_busy_share < 0.0) {
      std::fprintf(stderr, "warning: on some node thread, handler + send + decode time "
                           "exceeds the thread's CPU time\n");
    }
  }
  for (const auto& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  // Full result file: the metrics with sample counts, inputs and machine.
  JsonWriter j;
  j.begin_object()
      .key("workload").value(w.name)
      .key("spec").value(w.spec)
      .key("seed").value(o.seed)
      .key("seconds").value(o.seconds)
      .key("trace").value(o.traced);
  j.key("lengths").begin_object()
      .key("runs").value(static_cast<std::uint64_t>(runs.size()))
      .key("agreements_per_run").value(static_cast<std::uint64_t>(base.instances))
      .key("seed_stride").value(w.seed_stride)
      .key("warmup_runs").value(std::uint64_t{1})
      .key("measured_s").value(measured_s)
      .end_object();
  j.key("fingerprint").begin_object()
      .key("nproc").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .key("sha256_hw_accelerated").value(crypto::sha256_hw_accelerated())
      .key("compiler").value(PERF_COMPILER)
      .key("build_type").value(PERF_BUILD_TYPE)
      .key("git_head").value(o.git_head)
      .end_object();
  j.key("correct").value(correct)
      .key("attempted").value(static_cast<std::uint64_t>(attempted))
      .key("failed").value(static_cast<std::uint64_t>(failed));
  j.key("metrics");
  write_metrics(j, metrics, true);
  if (o.traced) {
    j.key("extra");
    write_metrics(j, extra, true);
  }
  j.key("runs").begin_array();
  for (const auto& r : runs) {
    std::uint64_t catchup_frames = 0;
    for (const auto& c : r.report.nodes) catchup_frames += c.catchup_frames;
    j.begin_object()
        .key("seed").value(r.seed)
        .key("agreements").value(static_cast<std::uint64_t>(r.probe->instances))
        .key("failed").value(static_cast<std::uint64_t>(r.failed))
        .key("phase_s").value(r.phase_s())
        .key("setup_s").value(r.setup_s())
        .key("teardown_s").value(r.teardown_s())
        .key("report_runtime_ms").value(r.report.runtime_ms)
        .key("cpu_s").value(r.cpu_s)
        .key("rss_at_harvest_mb").value(static_cast<double>(r.probe->rss_at_harvest_kb) / 1024.0)
        .key("heap_at_harvest_mb").value(static_cast<double>(r.probe->heap_at_harvest_kb) / 1024.0)
        .key("honest_bytes").value(r.report.honest_bytes)
        .key("honest_msgs").value(r.report.honest_msgs)
        .key("catchup_frames").value(catchup_frames)
        .end_object();
  }
  j.end_array();
  j.key("errors").begin_array();
  for (const auto& e : errors) j.value(e);
  j.end_array().end_object();
  const std::string stem = o.results_dir + "/" + w.name + "-seed" + std::to_string(o.seed);
  write_file(stem + (o.traced ? "-trace.json" : ".json"), j.str());
  if (o.traced) {
    write_trace(o.results_dir + "/trace-" + w.name + ".json", o, runs, metrics);
  }

  JsonWriter line;
  line.begin_object()
      .key("correct").value(correct)
      .key("attempted").value(static_cast<std::uint64_t>(attempted))
      .key("failed").value(static_cast<std::uint64_t>(failed));
  line.key("metrics");
  write_metrics(line, metrics, false);
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace delphi::perf

int main(int argc, char** argv) {
  const auto options = delphi::perf::parse_options(argc, argv);
  try {
    return delphi::perf::run_main(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "delphi_perf: %s\n", e.what());
    return 1;
  }
}
