#pragma once
/// \file simulator.hpp
/// Deterministic discrete-event simulator of an asynchronous message-passing
/// system — the stand-in for the paper's AWS and Raspberry-Pi testbeds (see
/// README.md "Substitutions").
///
/// The model captures the three resources that drive the paper's results:
///   1. *Latency*  — per-pair one-way delay from a LatencyModel, plus a
///      NetworkAdversary that may add arbitrary finite delay (asynchrony).
///   2. *Bandwidth* — each node has one uplink; outgoing frames serialize at
///      `uplink_bytes_per_us` (per-round volume matters on CPS, Fig 7).
///   3. *CPU* — nodes process messages serially; receive/send/crypto costs
///      extend a busy-until clock (FIN's coins are expensive here).
///
/// Same SimConfig + same protocols ⇒ bit-identical run (all randomness flows
/// from one seed; the event queue breaks time ties by sequence number).
///
/// Engine internals (the hot path the CPS benches live in):
///   * Events are split into a 24-byte heap key (time, seq, arena slot) and a
///     payload *frame* (sender, channel, message pointer) that lives in a
///     slab arena with a free list. The scheduler is a hand-rolled indexed
///     4-ary min-heap over the keys — sift operations move small POD keys
///     instead of 56-byte events carrying shared_ptrs, and frames are written
///     once and read once regardless of heap depth.
///   * The pop order equals the old std::priority_queue's exactly: (time,
///     seq) pairs are unique, so any correct heap yields the same total
///     order. tests/golden_metrics_test.cpp pins this bit-for-bit.
///   * Frames queued behind a busy uplink never enter the heap: each sender
///     keeps its uplink backlog in a flat FIFO (departure order is monotone)
///     and only the head frame is represented in the heap, as a *departure
///     marker* carrying the frame's own (time, seq) with time = departure <=
///     arrival. When the marker pops, the real arrival event is inserted.
///     Because the marker reuses the frame's sequence number and departure <=
///     arrival, every other event keeps its exact relative pop position —
///     the heap shrinks from "every queued frame" to "frames in the air",
///     orders of magnitude on bandwidth-bound (CPS) workloads. Latency and
///     adversary delays are still drawn at send time, in send order, so the
///     RNG stream is untouched.
///   * Arena and heap growth beyond SimConfig::max_in_flight raises
///     common ResourceExhausted (a typed delphi::Error) instead of
///     std::bad_alloc, so pathological adversary schedules fail loudly.
///   * Aggregate SimMetrics totals are folded from per-node counters when
///     run() returns (batched); the per-delivery path touches only node-local
///     counters.

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fifo.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"
#include "sim/adversary.hpp"
#include "sim/latency.hpp"

namespace delphi::sim {

/// Builds node i's protocol (the shared alias from net/protocol.hpp).
using ProtocolFactory = net::ProtocolFactory;

/// CPU and bandwidth cost model. All costs in µs (fractions accumulate in
/// double and round when applied).
struct CostModel {
  /// Uplink throughput in bytes per µs (12.5 B/µs == 100 Mbit/s).
  double uplink_bytes_per_us = 1e9;
  /// Fixed CPU cost to send one message (syscall + MAC).
  double per_msg_send_us = 0.0;
  /// Fixed CPU cost to receive one message (syscall + MAC verify).
  double per_msg_recv_us = 0.0;
  /// CPU cost per payload byte (hashing / copying), applied on send and recv.
  double per_byte_cpu_us = 0.0;

  /// Essentially-free model for unit tests (pure asynchrony semantics).
  static CostModel fast();
  /// Shaped after t2.micro instances on a WAN (latency-dominated).
  static CostModel aws();
  /// Shaped after Raspberry Pi 4 processes sharing a switch (bandwidth- and
  /// CPU-dominated).
  static CostModel cps();
};

/// Simulation deployment parameters.
struct SimConfig {
  std::size_t n = 4;
  std::uint64_t seed = 1;
  std::shared_ptr<LatencyModel> latency;        ///< default Uniform[100µs,10ms]
  std::shared_ptr<NetworkAdversary> adversary;  ///< default NoAdversary
  CostModel cost = CostModel::fast();
  /// Add 32-byte HMAC tags to every frame (the paper's authenticated
  /// channels). Affects bytes and CPU, not protocol logic.
  bool auth_channels = true;
  /// Deliver per-link messages in send order (sequence numbers + reorder
  /// buffer). Costs a few bytes per frame. Required by BinAA's compact codec.
  bool fifo_links = false;
  /// One deterministic restart: deliveries (including the start event and
  /// self-deliveries) destined to node `id` during [down_us, up_us) are
  /// deferred to up_us — the pure-delay restart model of the scenario churn
  /// plane (sound under asynchrony: a restart is indistinguishable from the
  /// network delaying everything addressed to the node). Windows for one
  /// node must be disjoint. Empty schedule = the exact pre-churn event
  /// order, bit for bit.
  struct ChurnWindow {
    NodeId id = 0;
    SimTime down_us = 0;
    SimTime up_us = 0;
  };
  std::vector<ChurnWindow> churn;
  /// Safety valve: abort the run after this many deliveries.
  std::size_t max_events = 400'000'000;
  /// Cap on *simultaneously in-flight* events (event arena + heap size).
  /// Exceeding it — e.g. an adversary schedule that withholds everything —
  /// raises ResourceExhausted instead of exhausting memory / std::bad_alloc.
  std::size_t max_in_flight = 50'000'000;
};

/// Per-node traffic/termination metrics.
struct NodeMetrics {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t malformed_dropped = 0;
  /// Churn plane: network frames addressed to this node while it was dark,
  /// deferred to its restart time (the simulator's catch-up traffic; zero
  /// without a churn schedule). Bytes are framed wire bytes — already part
  /// of the sender's bytes_sent, so never added to honest totals.
  std::uint64_t deferred_frames = 0;
  std::uint64_t deferred_bytes = 0;
  /// Time the node's protocol first reported terminated(); -1 if never.
  SimTime terminated_at = -1;
};

/// Whole-run metrics. total_msgs / total_bytes are folded from the per-node
/// counters when run() returns (batched accounting — the delivery hot path
/// never touches these).
struct SimMetrics {
  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t events_processed = 0;
  /// Max termination time over honest nodes; -1 if some honest node never
  /// terminated.
  SimTime honest_completion = -1;
  bool all_honest_terminated = false;
};

/// Traffic totals split honest/Byzantine, aggregated in one post-run pass —
/// the batched path harnesses and benches use instead of per-node loops.
struct TrafficTotals {
  std::uint64_t honest_msgs = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t byzantine_msgs = 0;
  std::uint64_t byzantine_bytes = 0;
};

/// The simulator. Usage:
///   Simulator sim(cfg);
///   for (i in 0..n) sim.add_node(make_protocol(i));
///   sim.set_byzantine({...});           // optional
///   sim.run();
///   auto& m = sim.metrics();
class Simulator {
 public:
  explicit Simulator(SimConfig cfg);

  /// Install node i's protocol (call exactly n times, in node order).
  void add_node(std::unique_ptr<net::Protocol> protocol);

  /// Declare which node ids are Byzantine (their termination is not awaited
  /// and their traffic is reported separately by honest/total split).
  void set_byzantine(std::set<NodeId> ids);

  /// Execute until every honest node terminates, the event queue drains, or
  /// max_events fires. Returns true iff all honest nodes terminated. Raises
  /// ResourceExhausted if more than cfg.max_in_flight events are ever in
  /// flight at once (the run is unusable afterwards).
  bool run();

  /// Access a node's protocol (e.g. to read outputs after run()).
  net::Protocol& node(NodeId id);

  /// Typed access helper.
  template <typename T>
  T& node_as(NodeId id) {
    auto* p = dynamic_cast<T*>(&node(id));
    DELPHI_ASSERT(p != nullptr, "node_as: wrong protocol type");
    return *p;
  }

  const NodeMetrics& node_metrics(NodeId id) const;
  const SimMetrics& metrics() const noexcept { return metrics_; }
  /// Batched honest/Byzantine traffic split (valid after run()).
  TrafficTotals traffic_totals() const;
  const SimConfig& config() const noexcept { return cfg_; }
  const std::set<NodeId>& byzantine() const noexcept { return byzantine_; }
  bool is_byzantine(NodeId id) const { return byzantine_.contains(id); }

  /// Current simulated time (max event time processed so far).
  SimTime now() const noexcept { return now_; }

 private:
  /// Payload of one scheduled event, stored in the slab arena. msg == nullptr
  /// marks a node's start event. Exactly one (aligned) half cache line; the
  /// channel rides in the heap entry instead, which has the padding to spare.
  struct alignas(32) Frame {
    net::MessagePtr msg;
    std::uint64_t fifo_seq = 0;
    NodeId to = 0;
    NodeId from = 0;
  };

  /// Indexed-heap key: ordering fields plus the arena slot of the payload
  /// and the frame's channel (packed into what would otherwise be padding).
  /// In the marker heap the "slot" field holds the sender's node id instead
  /// (see file header).
  struct HeapEntry {
    SimTime at = 0;
    std::uint64_t seq = 0;  // tie-break: FIFO among equal times
    std::uint32_t slot = 0;
    std::uint32_t channel = 0;
  };
  /// Upper bound on arena slots (and therefore max_in_flight).
  static constexpr std::uint32_t kMaxSlots = 0x8000'0000u;

  /// One frame waiting on a sender's uplink; arrival/seq/delays were fixed
  /// at send time (so the RNG draw order matches eager scheduling exactly).
  /// The message payload rides *in the ring* — an arena slot is only
  /// allocated when the frame actually departs, which keeps the arena at
  /// "frames in the air" size (cache-hot) no matter how deep uplink backlogs
  /// grow, and turns backlog memory traffic sequential.
  struct PendingDeparture {
    SimTime departure = 0;
    SimTime arrival = 0;
    std::uint64_t seq = 0;
    net::MessagePtr msg;
    std::uint64_t fifo_seq = 0;
    NodeId to = 0;
    std::uint32_t channel = 0;
  };

  /// Flat power-of-two ring of a sender's queued departures (push_back /
  /// pop_front only; departure times are monotone by construction).
  class UplinkFifo {
   public:
    bool empty() const noexcept { return count_ == 0; }
    PendingDeparture& front() noexcept { return buf_[head_]; }
    const PendingDeparture& front() const noexcept { return buf_[head_]; }
    void pop_front() noexcept {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --count_;
    }
    void push_back(PendingDeparture&& d) {
      if (count_ == buf_.size()) grow();
      buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(d);
      ++count_;
    }

   private:
    void grow() {
      std::vector<PendingDeparture> grown(buf_.empty() ? 16 : 2 * buf_.size());
      for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
      }
      buf_ = std::move(grown);
      head_ = 0;
    }
    std::vector<PendingDeparture> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct Outgoing {
    NodeId to;
    std::uint32_t channel;
    net::MessagePtr msg;
  };

  class NodeContext;  // implements net::Context

  struct NodeState {
    std::unique_ptr<net::Protocol> protocol;
    Rng rng{0};
    /// CPU is busy (receiving/sending/crypto) until this time.
    SimTime busy_until = 0;
    /// Uplink is serializing earlier frames until this time.
    SimTime uplink_free = 0;
    NodeMetrics metrics;
    bool terminated_recorded = false;
    /// Frames serializing on (or queued behind) this node's uplink, in
    /// departure order; only the head is in the event heap.
    UplinkFifo uplink_queue;
    /// Pending self-deliveries (loopbacks run at the node's CPU clock, which
    /// can be far ahead of simulated now on CPU-saturated workloads). Their
    /// per-node delivery times are monotone, so only the earliest is kept in
    /// the heap; the rest wait here. loopback_armed tracks whether a
    /// loopback event for this node is currently in the heap.
    UplinkFifo loopback_queue;
    bool loopback_armed = false;
    /// Sender-side FIFO sequence numbers (when fifo_links).
    std::vector<std::uint64_t> fifo_next_seq;
    /// Receiver-side reorder buffers of (channel << 32 | arena slot),
    /// indexed by sender (when fifo_links).
    std::vector<net::FifoReorderBuffer<std::uint64_t>> fifo_in;
  };

  static bool heap_before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  std::uint32_t alloc_frame(NodeId to, NodeId from, net::MessagePtr msg,
                            std::uint64_t fifo_seq);
  void release_frame(std::uint32_t slot);
  /// Account one newly created in-flight event against max_in_flight.
  void note_in_flight();
  static void push_heap_vec(std::vector<HeapEntry>& heap, HeapEntry e);
  static void pop_heap_vec(std::vector<HeapEntry>& heap);
  void heap_push(HeapEntry e) { push_heap_vec(heap_, e); }
  void schedule(SimTime at, std::uint32_t slot, std::uint32_t channel);
  void heap_pop() { pop_heap_vec(heap_); }

  /// Pop the sender's uplink head into the heap as a real arrival event and
  /// re-arm the marker for the next queued frame, if any.
  void fire_departure(NodeId sender_id);
  void deliver(std::uint32_t slot, std::uint32_t channel);
  void dispatch(std::uint32_t slot, std::uint32_t channel);
  void flush_outbox(NodeState& node, NodeId from, SimTime cpu_ready);

  SimConfig cfg_;
  std::vector<NodeState> nodes_;
  std::set<NodeId> byzantine_;

  /// Event scheduler: 4-ary min-heap of keys over the frame arena.
  std::vector<HeapEntry> heap_;
  /// Departure markers, one per sender at most (n entries), in their own
  /// tiny heap so uplink pacing never inflates the main heap's depth. The
  /// run loop pops the global (time, seq) minimum across both heaps.
  std::vector<HeapEntry> marker_heap_;
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> free_slots_;

  /// Per-dispatch outbox, reused across every delivery (zero steady-state
  /// allocations). Safe because dispatches never nest.
  std::vector<Outgoing> outbox_scratch_;

  std::uint64_t next_seq_ = 0;
  /// Events alive anywhere (arena, heap, uplink rings); capped by
  /// cfg_.max_in_flight.
  std::size_t in_flight_ = 0;
  SimTime now_ = 0;
  Rng net_rng_{0};
  SimMetrics metrics_;
  std::size_t honest_terminated_ = 0;
  bool started_ = false;
};

}  // namespace delphi::sim
