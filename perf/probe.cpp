#include "probe.hpp"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "net/protocol.hpp"
#include "transport/tcp.hpp"

namespace delphi::perf {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long heap_in_use_kb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<long>((mi.uordblks + mi.hblkhd) / 1024);
}

void Histogram::add(std::int64_t ns) noexcept {
  const auto u = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  ++count;
  sum_ns += static_cast<std::int64_t>(u);
  const auto bucket = u == 0 ? 0 : static_cast<std::size_t>(std::bit_width(u) - 1);
  ++log2_ns[std::min(bucket, kBuckets - 1)];
}

RunProbe::RunProbe(std::uint64_t base_seed_, std::size_t n_,
                   std::size_t instances_, bool traced_,
                   bool close_on_decide_)
    : base_seed(base_seed_),
      n(n_),
      instances(instances_),
      traced(traced_),
      close_on_decide(close_on_decide_),
      records(n_ * instances_),
      nodes(traced_ ? n_ : 0) {}

namespace {

std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

long rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long total_pages = 0;
  long resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * (sysconf(_SC_PAGESIZE) / 1024);
}

/// Which node the current thread is running, so the decoder (which the
/// transport calls before any protocol code) can charge the right node.
struct Attribution {
  const RunProbe* probe = nullptr;
  NodeTrace* node = nullptr;
};
thread_local Attribution t_attr;

/// Forwards to the host context, timing send/broadcast.
class TimingContext final : public net::Context {
 public:
  TimingContext(net::Context& inner, NodeTrace& node, bool timed)
      : inner_(inner), node_(node), timed_(timed) {}

  NodeId self() const override { return inner_.self(); }
  std::size_t n() const override { return inner_.n(); }
  SimTime now() const override { return inner_.now(); }
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override {
    timed([&] { inner_.send(to, channel, std::move(msg)); });
  }
  void broadcast(std::uint32_t channel, net::MessagePtr msg) override {
    timed([&] { inner_.broadcast(channel, std::move(msg)); });
  }
  void charge_compute(SimTime us) override { inner_.charge_compute(us); }
  Rng& rng() override { return inner_.rng(); }

 private:
  template <typename Send>
  void timed(Send&& send) {
    ++node_.sends;
    if (!timed_) {
      send();
      return;
    }
    const auto t0 = now_ns();
    send();
    node_.send.add(now_ns() - t0);
  }

  net::Context& inner_;
  NodeTrace& node_;
  bool timed_;
};

/// The decorator around one node's instance of one agreement.
class ProbedProtocol final : public net::Protocol, public net::ValueOutput {
 public:
  ProbedProtocol(std::unique_ptr<net::Protocol> inner, RunProbe& probe,
                 std::uint32_t sid, NodeId node)
      : inner_(std::move(inner)),
        value_(dynamic_cast<const net::ValueOutput*>(inner_.get())),
        probe_(probe),
        record_(probe.record(sid, node)),
        node_(node) {}

  void on_start(net::Context& ctx) override {
    record_.open_ns = now_ns();
    if (!probe_.traced) {
      inner_->on_start(ctx);
      settle();
      return;
    }
    NodeTrace& nt = probe_.nodes[node_];
    if (nt.first_open_ns < 0) {
      nt.first_open_ns = record_.open_ns;
      nt.first_open_cpu_ns = thread_cpu_ns();
      nt.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    }
    traced_call(ctx, nt, [&](net::Context& c) { inner_->on_start(c); });
  }

  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override {
    if (!probe_.traced) {
      inner_->on_message(ctx, from, channel, body);
      settle();
      return;
    }
    NodeTrace& nt = probe_.nodes[node_];
    ++nt.deliveries;
    if (decided_) ++nt.post_decide_deliveries;
    traced_call(ctx, nt,
                [&](net::Context& c) { inner_->on_message(c, from, channel, body); });
  }

  bool terminated() const override { return inner_->terminated(); }

  std::optional<double> output_value() const override {
    return value_ != nullptr ? value_->output_value() : std::nullopt;
  }

  const net::Protocol& inner() const noexcept { return *inner_; }
  InstanceRecord& record() const noexcept { return record_; }

 private:
  template <typename Call>
  void traced_call(net::Context& ctx, NodeTrace& nt, Call&& call) {
    t_attr = {&probe_, &nt};
    const bool timed = !nt.closed;
    TimingContext tctx(ctx, nt, timed);
    const auto send_before = nt.send.sum_ns;
    const auto t0 = now_ns();
    call(tctx);
    if (timed) nt.handler.add(now_ns() - t0 - (nt.send.sum_ns - send_before));
    settle();
  }

  /// Stamp the first call after which the instance reports terminated().
  void settle() {
    if (decided_ || !inner_->terminated()) return;
    decided_ = true;
    record_.decide_ns = now_ns();
    if (!probe_.traced) return;
    NodeTrace& nt = probe_.nodes[node_];
    nt.last_decide_ns = record_.decide_ns;
    nt.last_decide_cpu_ns = thread_cpu_ns();
    if (++nt.decided == probe_.instances && probe_.close_on_decide) {
      nt.closed = true;
    }
  }

  std::unique_ptr<net::Protocol> inner_;
  const net::ValueOutput* value_;
  RunProbe& probe_;
  InstanceRecord& record_;
  NodeId node_;
  bool decided_ = false;
};

}  // namespace

scenario::ProtocolRegistry probe_registry(RunProbe& probe) {
  const scenario::ProtocolInfo& base =
      scenario::ProtocolRegistry::global().require("delphi");
  scenario::ProtocolInfo info = base;
  RunProbe* p = &probe;

  info.make_factory = [p, inner = base.make_factory](
                          const scenario::ScenarioSpec& spec,
                          std::vector<double> inputs) -> net::ProtocolFactory {
    const auto t0 = now_ns();
    const std::uint64_t sid = spec.seed - p->base_seed;
    if (sid >= p->instances) {
      throw ConfigError("perf: factory seed outside the probed run");
    }
    auto factory = inner(spec, std::move(inputs));
    p->factory_ns += now_ns() - t0;
    return [p, sid = static_cast<std::uint32_t>(sid),
            factory = std::move(factory)](NodeId i) -> std::unique_ptr<net::Protocol> {
      return std::make_unique<ProbedProtocol>(factory(i), *p, sid, i);
    };
  };

  info.harvest = [p, inner = base.harvest](const net::Protocol& node,
                                           std::vector<double>& out) {
    if (p->heap_at_harvest_kb < 0) {
      p->heap_at_harvest_kb = heap_in_use_kb();
      p->rss_at_harvest_kb = rss_kb();
    }
    const auto t0 = now_ns();
    const auto* probed = dynamic_cast<const ProbedProtocol*>(&node);
    if (probed == nullptr) throw Error("perf: harvest of an unprobed instance");
    probed->record().output = probed->output_value();
    inner(probed->inner(), out);
    p->harvest_ns += now_ns() - t0;
  };

  if (probe.traced) {
    info.make_decoder = [p, inner = base.make_decoder](
                            const scenario::ScenarioSpec& spec) -> transport::Decoder {
      return [p, decode = inner(spec)](std::uint32_t channel, ByteReader& r) {
        const Attribution a = t_attr;
        if (a.probe != p || a.node->closed) return decode(channel, r);
        const auto t0 = now_ns();
        auto msg = decode(channel, r);
        a.node->decode.add(now_ns() - t0);
        return msg;
      };
    };
  }

  scenario::ProtocolRegistry reg;
  reg.add("delphi", std::move(info));
  return reg;
}

}  // namespace delphi::perf
