#pragma once
/// \file probe.hpp
/// Timing the Delphi runtimes from outside.
///
/// The benchmark never edits the program it measures. Instead it hands the
/// runtime a private ProtocolRegistry whose "delphi" entry is a copy of the
/// global one with three hooks wrapped:
///   * make_factory wraps every protocol instance the runtime builds in a
///     decorator that stamps when the instance opens and when it first
///     reports terminated() (and, traced, times its handlers and the sends
///     they make through net::Context);
///   * harvest unwraps the decorator, collects its output into the run's
///     record table, then calls the original harvester;
///   * make_decoder (traced runs only) times the suite's payload decoder.
/// The runtime's own code path is otherwise unchanged: spec resolution,
/// SessionMux windows, fault wrapping, meshes and the simulator all run as
/// they do for any other caller.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "scenario/registry.hpp"

namespace delphi::perf {

/// steady_clock in ns.
std::int64_t now_ns() noexcept;
/// Bytes the allocator has handed out and not yet had back, in KiB. Unlike
/// RSS it does not count freed memory the allocator keeps for reuse.
long heap_in_use_kb();

/// Count, sum and log2 histogram of durations.
struct Histogram {
  static constexpr std::size_t kBuckets = 40;
  std::uint64_t count = 0;
  std::int64_t sum_ns = 0;
  /// Bucket b counts durations in [2^b, 2^(b+1)) ns (0 ns lands in bucket 0).
  std::array<std::uint64_t, kBuckets> log2_ns{};

  void add(std::int64_t ns) noexcept;
};

/// One honest node's view of one agreement.
struct InstanceRecord {
  std::int64_t open_ns = -1;    ///< on_start entered
  std::int64_t decide_ns = -1;  ///< first call after which terminated()
  std::optional<double> output;  ///< collected at harvest
};

/// Per-node timings of a traced run. Written only by the thread hosting the
/// node and read after the runtime joined its threads.
struct alignas(64) NodeTrace {
  /// Hash of the hosting thread's id: socket nodes get a thread each, the
  /// simulator hosts every node on the caller's thread.
  std::size_t thread = 0;
  std::int64_t first_open_ns = -1;
  std::int64_t first_open_cpu_ns = 0;
  std::int64_t last_decide_ns = -1;
  std::int64_t last_decide_cpu_ns = 0;
  std::size_t decided = 0;
  /// Durations stop accumulating once set (see RunProbe::close_on_decide).
  bool closed = false;
  /// on_start/on_message self time (nested sends excluded).
  Histogram handler;
  /// Time inside Context::send/broadcast.
  Histogram send;
  /// Time inside the payload decoder (socket substrates).
  Histogram decode;
  std::uint64_t deliveries = 0;
  /// Deliveries to an instance that had already decided.
  std::uint64_t post_decide_deliveries = 0;
  std::uint64_t sends = 0;
};

/// Everything recorded about one Runtime::run() call.
struct RunProbe {
  /// \param base_seed        the spec's seed; instance sid is built from
  ///                         seed + sid, which is how the decorator learns it
  /// \param close_on_decide  stop timing a node after its last decide: a
  ///                         socket node keeps serving peers until the mesh
  ///                         stops, outside its own window. The simulator
  ///                         returns at the last honest decide, so every
  ///                         handler call falls inside the run.
  RunProbe(std::uint64_t base_seed, std::size_t n, std::size_t instances,
           bool traced, bool close_on_decide);

  InstanceRecord& record(std::uint32_t sid, NodeId node) {
    return records[sid * n + node];
  }
  const InstanceRecord& record(std::uint32_t sid, NodeId node) const {
    return records[sid * n + node];
  }

  std::uint64_t base_seed;
  std::size_t n;
  std::size_t instances;
  bool traced;
  bool close_on_decide;
  std::vector<InstanceRecord> records;  ///< [sid * n + node]
  std::vector<NodeTrace> nodes;         ///< empty unless traced
  /// Time inside the suite's make_factory (runtime set-up).
  std::int64_t factory_ns = 0;
  /// Time inside harvest (runtime teardown).
  std::int64_t harvest_ns = 0;
  /// Heap in use and RSS when the first node was harvested: every instance
  /// is still alive, so this is the run's memory peak.
  long heap_at_harvest_kb = -1;
  long rss_at_harvest_kb = -1;
};

/// A registry holding only "delphi": the global entry with its hooks
/// wrapped to record into `probe`, which must outlive every run using it.
scenario::ProtocolRegistry probe_registry(RunProbe& probe);

}  // namespace delphi::perf
