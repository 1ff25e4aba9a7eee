/// Every registry protocol's messages survive the wire: each suite runs on
/// the simulator behind a recording net::Context, and every body a node
/// sends or broadcasts must serialize to exactly wire_size() bytes, decode
/// with the suite's own decoder for its channel, and re-serialize to the
/// same bytes. A DelphiBundle::coalesce of one node's broadcasts must do the
/// same and decode to the parts' entries in order.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "delphi/message.hpp"
#include "net/protocol.hpp"
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"

namespace delphi::scenario {
namespace {

/// One body a node handed its host.
struct Sent {
  NodeId from = 0;
  std::uint32_t channel = 0;
  bool broadcast = false;
  net::MessagePtr msg;
};

/// Forwards to the host's Context, logging every send and broadcast.
class RecordingContext final : public net::Context {
 public:
  explicit RecordingContext(std::vector<Sent>& log) : log_(log) {}

  void bind(net::Context& inner) { inner_ = &inner; }

  NodeId self() const override { return inner_->self(); }
  std::size_t n() const override { return inner_->n(); }
  SimTime now() const override { return inner_->now(); }
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override {
    log_.push_back({self(), channel, false, msg});
    inner_->send(to, channel, std::move(msg));
  }
  void broadcast(std::uint32_t channel, net::MessagePtr msg) override {
    log_.push_back({self(), channel, true, msg});
    inner_->broadcast(channel, std::move(msg));
  }
  void charge_compute(SimTime us) override { inner_->charge_compute(us); }
  Rng& rng() override { return inner_->rng(); }

 private:
  std::vector<Sent>& log_;
  net::Context* inner_ = nullptr;
};

/// Hosts a suite's node behind a RecordingContext.
class Recorded final : public net::Protocol {
 public:
  Recorded(std::unique_ptr<net::Protocol> inner, std::vector<Sent>& log)
      : inner_(std::move(inner)), ctx_(log) {}

  void on_start(net::Context& ctx) override {
    ctx_.bind(ctx);
    inner_->on_start(ctx_);
  }
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override {
    ctx_.bind(ctx);
    inner_->on_message(ctx_, from, channel, body);
  }
  bool terminated() const override { return inner_->terminated(); }

 private:
  std::unique_ptr<net::Protocol> inner_;
  RecordingContext ctx_;
};

/// Every global entry, with each node wrapped in Recorded. Outputs are not
/// harvested: the suites' harvesters read their own protocol types.
ProtocolRegistry recording_registry(std::vector<Sent>& log) {
  ProtocolRegistry reg;
  const ProtocolRegistry& global = ProtocolRegistry::global();
  for (const auto& name : global.names()) {
    ProtocolInfo info = global.require(name);
    info.make_factory = [make = info.make_factory, &log](
                            const ScenarioSpec& spec,
                            std::vector<double> inputs) {
      net::ProtocolFactory inner = make(spec, std::move(inputs));
      return net::ProtocolFactory([inner, &log](NodeId id) {
        return std::make_unique<Recorded>(inner(id), log);
      });
    };
    info.harvest = [](const net::Protocol&, std::vector<double>&) {};
    reg.add(name, std::move(info));
  }
  return reg;
}

ScenarioSpec small_spec(const std::string& protocol) {
  return ScenarioSpec::from_text("protocol=" + protocol +
                                 " testbed=async n=6 seed=7");
}

/// Run `protocol` on the simulator and return every body its nodes sent.
std::vector<Sent> record_run(const std::string& protocol) {
  std::vector<Sent> log;
  const ProtocolRegistry reg = recording_registry(log);
  const RunReport rep = SimRuntime(&reg).run(small_spec(protocol));
  EXPECT_TRUE(rep.ok) << protocol;
  return log;
}

std::vector<std::uint8_t> encode(const net::MessageBody& msg) {
  ByteWriter w;
  msg.serialize(w);
  return w.take();
}

TEST(MessageRoundTrip, EveryRegistryProtocolsMessagesRoundTrip) {
  for (const auto& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    const std::vector<Sent> log = record_run(name);
    ASSERT_FALSE(log.empty());
    const transport::Decoder decode =
        ProtocolRegistry::global().require(name).make_decoder(
            small_spec(name));
    for (const Sent& s : log) {
      const std::vector<std::uint8_t> bytes = encode(*s.msg);
      ASSERT_EQ(bytes.size(), s.msg->wire_size()) << "channel " << s.channel;
      ByteReader r(bytes);
      const net::MessagePtr back = decode(s.channel, r);
      ASSERT_TRUE(r.exhausted()) << "channel " << s.channel;
      ASSERT_EQ(encode(*back), bytes) << "channel " << s.channel;
    }
  }
}

auto key(const protocol::DefaultEcho& d) {
  return std::tuple(d.level, d.kind, d.round, d.value);
}
auto key(const protocol::ExplicitEcho& e) {
  return std::tuple(e.level, e.k, e.kind, e.round, e.value);
}

TEST(MessageRoundTrip, CoalescedDelphiBundleDecodesToItsParts) {
  std::vector<net::MessagePtr> parts;
  std::vector<std::tuple<std::uint32_t, std::uint8_t, std::uint32_t,
                         binaa::ScaledValue>>
      defaults;
  std::vector<std::tuple<std::uint32_t, std::int64_t, std::uint8_t,
                         std::uint32_t, binaa::ScaledValue>>
      explicits;
  for (const Sent& s : record_run("delphi")) {
    if (s.from != 0 || !s.broadcast) continue;
    const auto& b = dynamic_cast<const protocol::DelphiBundle&>(*s.msg);
    for (const auto& d : b.defaults()) defaults.push_back(key(d));
    for (const auto& e : b.explicits()) explicits.push_back(key(e));
    parts.push_back(s.msg);
  }
  ASSERT_GT(parts.size(), 1u);
  const net::MessagePtr merged =
      dynamic_cast<const net::CoalescableBody&>(*parts.front())
          .coalesce(parts);
  const std::vector<std::uint8_t> bytes = encode(*merged);
  EXPECT_EQ(bytes.size(), merged->wire_size());

  ByteReader r(bytes);
  const auto back = protocol::DelphiBundle::decode(r);
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(back->defaults().size(), defaults.size());
  ASSERT_EQ(back->explicits().size(), explicits.size());
  for (std::size_t i = 0; i < defaults.size(); ++i) {
    EXPECT_EQ(key(back->defaults()[i]), defaults[i]) << "default " << i;
  }
  for (std::size_t i = 0; i < explicits.size(); ++i) {
    EXPECT_EQ(key(back->explicits()[i]), explicits[i]) << "explicit " << i;
  }
}

}  // namespace
}  // namespace delphi::scenario
