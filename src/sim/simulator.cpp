#include "sim/simulator.hpp"

#include <cmath>
#include <cstdio>
#include <new>

namespace delphi::sim {

CostModel CostModel::fast() {
  return CostModel{/*uplink_bytes_per_us=*/1e12, /*per_msg_send_us=*/0.0,
                   /*per_msg_recv_us=*/0.0, /*per_byte_cpu_us=*/0.0};
}

CostModel CostModel::aws() {
  // t2.micro (1 vCPU) on a WAN: ~100 Mbit/s effective uplink. Per-message
  // CPU reflects measured small-message costs of a tokio/TCP/HMAC stack on
  // burstable single-core instances (tens of µs each) — this is what makes
  // O(n³)-message protocols CPU-bound at n = 160 while latency dominates
  // for O(n²)-message Delphi (README.md "Substitutions").
  return CostModel{/*uplink_bytes_per_us=*/12.5, /*per_msg_send_us=*/15.0,
                   /*per_msg_recv_us=*/25.0, /*per_byte_cpu_us=*/0.008};
}

CostModel CostModel::cps() {
  // Raspberry Pi 4 processes sharing a switch (several emulated nodes per
  // device): ~20 Mbit/s effective per process, slow cores — per-message and
  // per-byte CPU an order of magnitude above AWS.
  return CostModel{/*uplink_bytes_per_us=*/2.5, /*per_msg_send_us=*/60.0,
                   /*per_msg_recv_us=*/100.0, /*per_byte_cpu_us=*/0.05};
}

namespace {
SimTime us_round(double v) { return static_cast<SimTime>(std::llround(v)); }
}  // namespace

// ----------------------------------------------------------- NodeContext --

class Simulator::NodeContext final : public net::Context {
 public:
  NodeContext(Simulator& sim, NodeId self, SimTime start)
      : sim_(sim), self_(self), start_(start) {}

  NodeId self() const override { return self_; }
  std::size_t n() const override { return sim_.cfg_.n; }
  SimTime now() const override { return start_ + compute_; }

  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override {
    DELPHI_ASSERT(to < sim_.cfg_.n, "send: destination out of range");
    DELPHI_ASSERT(msg != nullptr, "send: null message");
    sim_.outbox_scratch_.push_back(Outgoing{to, channel, std::move(msg)});
  }

  void broadcast(std::uint32_t channel, net::MessagePtr msg) override {
    DELPHI_ASSERT(msg != nullptr, "broadcast: null message");
    for (NodeId to = 0; to < sim_.cfg_.n; ++to) {
      sim_.outbox_scratch_.push_back(Outgoing{to, channel, msg});
    }
  }

  void charge_compute(SimTime us) override {
    DELPHI_ASSERT(us >= 0, "charge_compute: negative time");
    compute_ += us;
  }

  Rng& rng() override { return sim_.nodes_[self_].rng; }

  SimTime compute_charged() const noexcept { return compute_; }

 private:
  Simulator& sim_;
  NodeId self_;
  SimTime start_;
  SimTime compute_ = 0;
};

// ------------------------------------------------------------- Simulator --

Simulator::Simulator(SimConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.n == 0) throw ConfigError("Simulator: n must be >= 1");
  if (cfg_.max_in_flight == 0 || cfg_.max_in_flight >= kMaxSlots) {
    throw ConfigError("Simulator: max_in_flight out of range");
  }
  if (!cfg_.latency) {
    cfg_.latency = std::make_shared<UniformLatency>(100, 10'000);
  }
  if (!cfg_.adversary) cfg_.adversary = std::make_shared<NoAdversary>();
  Rng master(cfg_.seed);
  net_rng_ = master.fork(0x4E455457 /*"NETW"*/);
  nodes_.reserve(cfg_.n);
}

void Simulator::add_node(std::unique_ptr<net::Protocol> protocol) {
  DELPHI_ASSERT(protocol != nullptr, "add_node: null protocol");
  if (nodes_.size() >= cfg_.n) throw ConfigError("add_node: too many nodes");
  NodeState state;
  state.protocol = std::move(protocol);
  Rng master(cfg_.seed);
  state.rng = master.fork(0x4E4F4445 /*"NODE"*/ + nodes_.size());
  if (cfg_.fifo_links) {
    state.fifo_next_seq.assign(cfg_.n, 0);
    state.fifo_in.resize(cfg_.n);
  }
  nodes_.push_back(std::move(state));
}

void Simulator::set_byzantine(std::set<NodeId> ids) {
  for (NodeId id : ids) {
    DELPHI_ASSERT(id < cfg_.n, "set_byzantine: id out of range");
  }
  byzantine_ = std::move(ids);
}

net::Protocol& Simulator::node(NodeId id) {
  DELPHI_ASSERT(id < nodes_.size(), "node: id out of range");
  return *nodes_[id].protocol;
}

const NodeMetrics& Simulator::node_metrics(NodeId id) const {
  DELPHI_ASSERT(id < nodes_.size(), "node_metrics: id out of range");
  return nodes_[id].metrics;
}

TrafficTotals Simulator::traffic_totals() const {
  TrafficTotals t;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const NodeMetrics& m = nodes_[i].metrics;
    if (byzantine_.contains(i)) {
      t.byzantine_msgs += m.msgs_sent;
      t.byzantine_bytes += m.bytes_sent;
    } else {
      t.honest_msgs += m.msgs_sent;
      t.honest_bytes += m.bytes_sent;
    }
  }
  return t;
}

// ------------------------------------------------- event arena + 4-ary heap

std::uint32_t Simulator::alloc_frame(NodeId to, NodeId from,
                                     net::MessagePtr msg,
                                     std::uint64_t fifo_seq) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    Frame& f = frames_[slot];
    f.msg = std::move(msg);
    f.fifo_seq = fifo_seq;
    f.to = to;
    f.from = from;
    return slot;
  }
  try {
    frames_.push_back(Frame{std::move(msg), fifo_seq, to, from});
  } catch (const std::bad_alloc&) {
    throw ResourceExhausted("simulator: event arena allocation failed with " +
                            std::to_string(frames_.size()) +
                            " events in flight");
  }
  return static_cast<std::uint32_t>(frames_.size() - 1);
}

void Simulator::release_frame(std::uint32_t slot) {
  frames_[slot].msg.reset();  // drop the body promptly (peak memory)
  free_slots_.push_back(slot);
  --in_flight_;
}

void Simulator::note_in_flight() {
  if (++in_flight_ > cfg_.max_in_flight) {
    throw ResourceExhausted(
        "simulator: in-flight events exceeded max_in_flight = " +
        std::to_string(cfg_.max_in_flight) + " at t=" + std::to_string(now_));
  }
}

void Simulator::schedule(SimTime at, std::uint32_t slot,
                         std::uint32_t channel) {
  heap_push(HeapEntry{at, next_seq_++, slot, channel});
}

void Simulator::push_heap_vec(std::vector<HeapEntry>& heap, HeapEntry e) {
  try {
    heap.push_back(e);
  } catch (const std::bad_alloc&) {
    throw ResourceExhausted("simulator: event heap allocation failed with " +
                            std::to_string(heap.size()) + " events in flight");
  }
  // Sift up (hole-shift: each level is one copy, not a swap).
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!heap_before(e, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = e;
}

void Simulator::pop_heap_vec(std::vector<HeapEntry>& heap) {
  const HeapEntry last = heap.back();
  heap.pop_back();
  const std::size_t size = heap.size();
  if (size == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= size) break;
    const std::size_t end = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (heap_before(heap[c], heap[best])) best = c;
    }
    if (!heap_before(heap[best], last)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = last;
}

// ---------------------------------------------------------------- run loop

bool Simulator::run() {
  DELPHI_ASSERT(nodes_.size() == cfg_.n, "run: add_node not called n times");
  if (!started_) {
    started_ = true;
    for (NodeId i = 0; i < cfg_.n; ++i) {
      note_in_flight();
      schedule(/*at=*/0,
               alloc_frame(/*to=*/i, /*from=*/i, /*msg=*/nullptr,
                           /*fifo_seq=*/0),
               /*channel=*/0);
    }
  }
  const std::size_t honest_count = cfg_.n - byzantine_.size();
  while (!heap_.empty() || !marker_heap_.empty()) {
    if (metrics_.events_processed >= cfg_.max_events) {
      std::fprintf(stderr, "[WARN ] simulator: max_events reached at t=%lld\n",
                   static_cast<long long>(now_));
      break;
    }
    // Pop the global (time, seq) minimum across the event and marker heaps.
    if (!marker_heap_.empty() &&
        (heap_.empty() || heap_before(marker_heap_.front(), heap_.front()))) {
      // Uplink departure: promote the head frame to a real arrival event.
      // Not a delivery — events_processed intentionally unchanged.
      const HeapEntry marker = marker_heap_.front();
      pop_heap_vec(marker_heap_);
      now_ = marker.at;
      fire_departure(static_cast<NodeId>(marker.slot));
      continue;
    }
    const HeapEntry top = heap_.front();
    heap_pop();
    now_ = top.at;
    ++metrics_.events_processed;
    deliver(top.slot, top.channel);
    if (honest_terminated_ == honest_count) break;
  }
  metrics_.all_honest_terminated = (honest_terminated_ == honest_count);
  if (metrics_.all_honest_terminated) {
    SimTime worst = 0;
    for (NodeId i = 0; i < cfg_.n; ++i) {
      if (byzantine_.contains(i)) continue;
      worst = std::max(worst, nodes_[i].metrics.terminated_at);
    }
    metrics_.honest_completion = worst;
  }
  // Batched accounting: fold aggregate traffic totals from the per-node
  // counters once, instead of bumping globals on every send in the hot loop.
  const TrafficTotals totals = traffic_totals();
  metrics_.total_msgs = totals.honest_msgs + totals.byzantine_msgs;
  metrics_.total_bytes = totals.honest_bytes + totals.byzantine_bytes;
  return metrics_.all_honest_terminated;
}

void Simulator::fire_departure(NodeId sender_id) {
  NodeState& sender = nodes_[sender_id];
  DELPHI_ASSERT(!sender.uplink_queue.empty(),
                "fire_departure: marker without queued frame");
  {
    PendingDeparture& head = sender.uplink_queue.front();
    const std::uint32_t slot = alloc_frame(head.to, sender_id,
                                           std::move(head.msg), head.fifo_seq);
    heap_push(HeapEntry{head.arrival, head.seq, slot, head.channel});
    sender.uplink_queue.pop_front();
  }
  // Drain any follow-up departures that would pop before the current global
  // minimum anyway: promoting them now is order-equivalent to cycling their
  // markers through the heap, at a third of the heap traffic.
  while (!sender.uplink_queue.empty()) {
    PendingDeparture& next = sender.uplink_queue.front();
    const HeapEntry key{next.departure, next.seq, 0, 0};
    const bool before_events = heap_.empty() || heap_before(key, heap_.front());
    const bool before_markers =
        marker_heap_.empty() || heap_before(key, marker_heap_.front());
    if (!before_events || !before_markers) {
      push_heap_vec(marker_heap_,
                    HeapEntry{next.departure, next.seq, sender_id, 0});
      break;
    }
    const std::uint32_t slot = alloc_frame(next.to, sender_id,
                                           std::move(next.msg), next.fifo_seq);
    heap_push(HeapEntry{next.arrival, next.seq, slot, next.channel});
    sender.uplink_queue.pop_front();
  }
}

void Simulator::deliver(std::uint32_t slot, std::uint32_t channel) {
  Frame& f = frames_[slot];
  if (!cfg_.churn.empty()) {
    // Churn plane: a dark node processes nothing — re-schedule the event at
    // its restart time. Deferrals happen in pop order with fresh sequence
    // numbers, so the relative order of everything a node missed is
    // preserved and the run stays bit-identical across reruns.
    for (const auto& w : cfg_.churn) {
      if (w.id == f.to && now_ >= w.down_us && now_ < w.up_us) {
        if (f.msg != nullptr && f.from != f.to) {
          NodeMetrics& m = nodes_[f.to].metrics;
          ++m.deferred_frames;
          const std::size_t seq_bytes =
              cfg_.fifo_links ? uvarint_size(f.fifo_seq) : 0;
          m.deferred_bytes += net::framed_size(
              f.msg->wire_size_cached() + seq_bytes, channel,
              cfg_.auth_channels);
        }
        schedule(w.up_us, slot, channel);
        return;
      }
    }
  }
  if (cfg_.fifo_links && f.msg != nullptr && f.from != f.to) {
    // Release in sender order; predecessors may still be in flight.
    auto& buf = nodes_[f.to].fifo_in[f.from];
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(channel) << 32) | slot;
    if (!buf.insert(f.fifo_seq, packed)) {
      release_frame(slot);  // stale duplicate: dropped unprocessed
      return;
    }
    while (const std::uint64_t* ready = buf.ready()) {
      const auto ready_slot = static_cast<std::uint32_t>(*ready);
      const auto ready_channel = static_cast<std::uint32_t>(*ready >> 32);
      buf.pop_ready();
      dispatch(ready_slot, ready_channel);
      release_frame(ready_slot);
    }
    return;
  }
  const bool was_loopback = (f.msg != nullptr && f.from == f.to);
  const NodeId to = f.to;  // dispatch may grow the arena; f dangles after
  dispatch(slot, channel);
  release_frame(slot);
  if (was_loopback) {
    // This node's earliest pending self-delivery (if any) takes the heap
    // slot we just vacated; its time is >= this event's (monotone per node).
    NodeState& nd = nodes_[to];
    if (!nd.loopback_queue.empty()) {
      PendingDeparture& head = nd.loopback_queue.front();
      const std::uint32_t next_slot =
          alloc_frame(head.to, head.to, std::move(head.msg), /*fifo_seq=*/0);
      // max() is a no-op without churn (per-node loopback times are
      // monotone); with churn the head may predate a deferred delivery that
      // just fired at the restart time, and simulated time never rewinds.
      heap_push(HeapEntry{std::max(head.arrival, now_), head.seq, next_slot,
                          head.channel});
      nd.loopback_queue.pop_front();
    } else {
      nd.loopback_armed = false;
    }
  }
}

void Simulator::dispatch(std::uint32_t slot, std::uint32_t channel) {
  // Copy the frame fields out: flush_outbox below may grow the arena and
  // invalidate references into frames_.
  const NodeId to = frames_[slot].to;
  const NodeId from = frames_[slot].from;
  const net::MessageBody* msg = frames_[slot].msg.get();

  NodeState& node = nodes_[to];
  // CPU model: the handler starts when both the message has arrived (now_)
  // and the node finished earlier work.
  const SimTime start = std::max(now_, node.busy_until);
  NodeContext ctx(*this, to, start);

  std::size_t wire = 0;
  try {
    if (msg == nullptr) {
      node.protocol->on_start(ctx);
    } else {
      ++node.metrics.msgs_delivered;
      wire = msg->wire_size_cached();
      node.protocol->on_message(ctx, from, channel, *msg);
    }
  } catch (const ProtocolViolation&) {
    ++node.metrics.malformed_dropped;
  } catch (const SerializationError&) {
    ++node.metrics.malformed_dropped;
  }

  const SimTime recv_cost =
      msg == nullptr
          ? 0
          : us_round(cfg_.cost.per_msg_recv_us +
                     static_cast<double>(wire) * cfg_.cost.per_byte_cpu_us);
  const SimTime finish = start + recv_cost + ctx.compute_charged();
  node.busy_until = finish;

  flush_outbox(node, to, finish);

  if (!node.terminated_recorded && node.protocol->terminated()) {
    node.terminated_recorded = true;
    node.metrics.terminated_at = finish;
    if (!byzantine_.contains(to)) ++honest_terminated_;
  }
}

void Simulator::flush_outbox(NodeState& node, NodeId from, SimTime cpu_ready) {
  SimTime cpu = cpu_ready;
  const CostModel& cost = cfg_.cost;
  LatencyModel* const latency = cfg_.latency.get();
  NetworkAdversary* const adversary = cfg_.adversary.get();
  for (Outgoing& out : outbox_scratch_) {
    const std::size_t payload = out.msg->wire_size_cached();

    if (out.to == from) {
      // Loopback: delivered through the local queue, no network resources.
      // Only the node's earliest self-delivery lives in the heap.
      note_in_flight();
      const std::uint64_t seq = next_seq_++;
      if (!node.loopback_armed) {
        node.loopback_armed = true;
        heap_push(HeapEntry{
            cpu, seq,
            alloc_frame(out.to, from, std::move(out.msg), /*fifo_seq=*/0),
            out.channel});
      } else {
        try {
          node.loopback_queue.push_back(PendingDeparture{
              cpu, cpu, seq, std::move(out.msg), /*fifo_seq=*/0, out.to,
              out.channel});
        } catch (const std::bad_alloc&) {
          throw ResourceExhausted(
              "simulator: loopback queue allocation failed with " +
              std::to_string(in_flight_) + " events in flight");
        }
      }
      continue;
    }

    std::uint64_t fifo_seq = 0;
    std::size_t seq_bytes = 0;
    if (cfg_.fifo_links) {
      fifo_seq = node.fifo_next_seq[out.to]++;
      seq_bytes = uvarint_size(fifo_seq);
    }
    const std::size_t frame =
        net::framed_size(payload + seq_bytes, out.channel, cfg_.auth_channels);

    // Sending costs CPU (framing + MAC), then occupies the uplink.
    cpu += us_round(cost.per_msg_send_us +
                    static_cast<double>(frame) * cost.per_byte_cpu_us);
    const SimTime serialize =
        us_round(static_cast<double>(frame) / cost.uplink_bytes_per_us);
    const SimTime departure = std::max(node.uplink_free, cpu) + serialize;
    node.uplink_free = departure;

    const SimTime arrival =
        departure + latency->delay(from, out.to, net_rng_) +
        adversary->extra_delay(from, out.to, departure, net_rng_);
    // The frame waits in the sender's uplink FIFO; only the queue head gets
    // a heap entry (the departure marker). seq is assigned here, in send
    // order, exactly as if the arrival were scheduled eagerly.
    const std::uint64_t seq = next_seq_++;
    note_in_flight();
    const bool uplink_was_idle = node.uplink_queue.empty();
    try {
      node.uplink_queue.push_back(PendingDeparture{
          departure, arrival, seq, std::move(out.msg), fifo_seq, out.to,
          out.channel});
    } catch (const std::bad_alloc&) {
      throw ResourceExhausted(
          "simulator: uplink queue allocation failed with " +
          std::to_string(in_flight_) + " events in flight");
    }
    if (uplink_was_idle) {
      push_heap_vec(marker_heap_, HeapEntry{departure, seq, from, 0});
    }

    ++node.metrics.msgs_sent;
    node.metrics.bytes_sent += frame;
  }
  outbox_scratch_.clear();
  node.busy_until = cpu;
}

}  // namespace delphi::sim
