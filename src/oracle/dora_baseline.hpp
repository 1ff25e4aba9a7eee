#pragma once
/// \file dora_baseline.hpp
/// The DORA baseline of Chakka et al. [20] (Table III): the SMR-assisted
/// oracle agreement the paper compares Delphi against.
///
/// Protocol (3 rounds, O(l n² + kappa n²) bits, O(n) verifications/node):
///   1. every oracle signs its reading and broadcasts the signed value;
///   2. after collecting n-t valid signed values it submits the list to the
///      external SMR channel (blockchain);
///   3. the SMR channel orders submissions; the *first* valid list wins and
///      every oracle outputs the median of its values.
/// The median of n-t >= 2t+1 values with <= t Byzantine entries lies inside
/// the honest hull — exact convex validity, the row the paper gives DORA.
///
/// The SMR channel is external and trusted in [20] (a blockchain); we model
/// it as one designated sequencer process (node id n in an (n+1)-node
/// deployment) that validates and relays the first submission — see
/// README.md "Substitutions". Signatures are HMAC attestation tags; their
/// CPU cost is charged per the testbed model (this is DORA's O(n²)
/// verification bill that Delphi eliminates).

#include <optional>

#include "common/bitset.hpp"
#include "crypto/certificate.hpp"
#include "net/protocol.hpp"

namespace delphi::oracle {

/// A signed oracle reading.
class SignedValueMessage final : public net::MessageBody {
 public:
  SignedValueMessage(double value, crypto::Digest tag)
      : value_(value), tag_(tag) {}

  double value() const noexcept { return value_; }
  const crypto::Digest& tag() const noexcept { return tag_; }

  std::size_t wire_size() const override { return 8 + tag_.size(); }
  void serialize(ByteWriter& w) const override {
    w.f64(value_);
    w.raw(std::span<const std::uint8_t>(tag_.data(), tag_.size()));
  }
  static std::shared_ptr<const SignedValueMessage> decode(ByteReader& r);

 private:
  double value_;
  crypto::Digest tag_;
};

/// A list of signed readings (a submission to / decision from the SMR).
class ValueListMessage final : public net::MessageBody {
 public:
  struct Entry {
    NodeId signer;
    double value;
    crypto::Digest tag;
  };

  explicit ValueListMessage(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  const std::vector<Entry>& entries() const noexcept { return entries_; }

  std::size_t wire_size() const override;
  void serialize(ByteWriter& w) const override;
  static std::shared_ptr<const ValueListMessage> decode(ByteReader& r);

 private:
  std::vector<Entry> entries_;
};

/// Shared configuration of the DORA baseline deployment.
struct DoraBaselineConfig {
  /// Number of *oracles* (the deployment has n+1 processes; id n = SMR).
  std::size_t n = 4;
  std::size_t t = 1;
  const crypto::Attestor* attestor = nullptr;
  /// CPU per signature creation / verification (ECDSA/BLS-scale).
  SimTime sign_compute_us = 50;
  SimTime verify_compute_us = 120;
  /// Channel ids.
  static constexpr std::uint32_t kSignedChannel = 1;
  static constexpr std::uint32_t kSubmitChannel = 2;
  static constexpr std::uint32_t kDecideChannel = 3;
};

/// One oracle node of the DORA baseline.
class DoraBaselineOracle final : public net::Protocol, public net::ValueOutput {
 public:
  DoraBaselineOracle(DoraBaselineConfig cfg, double input);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return output_.has_value(); }
  std::optional<double> output_value() const override { return output_; }

 private:
  NodeId smr_node() const { return static_cast<NodeId>(cfg_.n); }

  DoraBaselineConfig cfg_;
  double input_;
  std::vector<ValueListMessage::Entry> collected_;
  NodeBitset seen_;
  bool submitted_ = false;
  std::optional<double> output_;
};

/// The trusted SMR sequencer (external blockchain stand-in, node id n).
class SmrSequencer final : public net::Protocol {
 public:
  explicit SmrSequencer(DoraBaselineConfig cfg) : cfg_(cfg) {}

  void on_start(net::Context&) override {}
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return true; }  // service, not a party

 private:
  DoraBaselineConfig cfg_;
  bool decided_ = false;
};

}  // namespace delphi::oracle
