#pragma once
/// \file dora.hpp
/// DORA-style attested oracle output on top of Delphi (paper §V).
///
/// After Delphi terminates, each node rounds its output to the nearest
/// multiple of eps, signs the rounded value, and collects t+1 matching
/// signatures into a succinct certificate for the SMR channel / blockchain.
/// Because honest Delphi outputs are eps-close, rounding lands them on at
/// most two adjacent grid points, so at least one value is endorsed by t+1
/// honest nodes, and no third value can ever be certified (at most two
/// possible outputs — Table III). Rounding adds one extra eps of validity
/// relaxation: [m - delta - eps, M + delta + eps].
///
/// Signatures are HMAC attestation shares (crypto/certificate.hpp) standing
/// in for the paper's BLS aggregates — see README.md "Substitutions".

#include <optional>

#include "crypto/certificate.hpp"
#include "delphi/delphi.hpp"
#include "net/protocol.hpp"

namespace delphi::oracle {

/// Attestation share wire message.
class AttestMessage final : public net::MessageBody {
 public:
  AttestMessage(std::int64_t value_index, crypto::Digest tag)
      : value_index_(value_index), tag_(tag) {}

  std::int64_t value_index() const noexcept { return value_index_; }
  const crypto::Digest& tag() const noexcept { return tag_; }

  std::size_t wire_size() const override {
    return svarint_size(value_index_) + tag_.size();
  }
  void serialize(ByteWriter& w) const override {
    w.svarint(value_index_);
    w.raw(std::span<const std::uint8_t>(tag_.data(), tag_.size()));
  }
  static std::shared_ptr<const AttestMessage> decode(ByteReader& r) {
    const std::int64_t idx = r.svarint();
    auto span = r.raw(32);
    crypto::Digest tag{};
    std::copy(span.begin(), span.end(), tag.begin());
    return std::make_shared<AttestMessage>(idx, tag);
  }

 private:
  std::int64_t value_index_;
  crypto::Digest tag_;
};

/// Delphi + rounding + certificate assembly.
class DoraProtocol final : public net::Protocol, public net::ValueOutput {
 public:
  struct Config {
    protocol::DelphiProtocol::Config delphi;
    /// Attestor over the deployment's key store.
    const crypto::Attestor* attestor = nullptr;
    /// CPU cost of one signature / one verification (models BLS; charged via
    /// the simulator — Delphi itself stays crypto-free, Table III).
    SimTime sign_compute_us = 0;
    SimTime verify_compute_us = 0;
  };

  DoraProtocol(Config cfg, double input);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return certificate_.has_value(); }

  /// The certified (rounded) value.
  std::optional<double> output_value() const override;

  /// The certificate itself (valid once terminated).
  const crypto::Certificate& certificate() const;

  /// The node's raw Delphi output (pre-rounding), once Delphi terminated.
  std::optional<double> raw_output() const { return delphi_.output_value(); }

  /// Channel carrying attestation shares (everything else is Delphi traffic;
  /// the TCP decoder routes on this).
  static constexpr std::uint32_t kAttestChannel = 0xD0 /* distinct */;

 private:
  void after_delphi(net::Context& ctx);
  void try_certify();

  Config cfg_;
  protocol::DelphiProtocol delphi_;
  bool share_sent_ = false;
  std::vector<crypto::AttestationShare> shares_;
  std::optional<crypto::Certificate> certificate_;
};

}  // namespace delphi::oracle
