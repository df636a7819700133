// Paillier tactic — cloud-side SUM / AVERAGE / COUNT over additively
// homomorphic ciphertexts (Table 2 rows "Sum" and "Average": 3 gateway /
// 3 cloud interfaces, challenge = key management). Values are fixed-point
// encoded (x100) before encryption; the private key never leaves the
// gateway (persisted in the gateway's local KvStore, sealed with AES-GCM
// under a KMS-derived key).
#pragma once

#include <optional>

#include "core/spi.hpp"
#include "phe/paillier.hpp"

namespace datablinder::core {

class PaillierTactic final : public FieldTactic {
 public:
  static constexpr std::int64_t kFixedPointScale = 100;

  explicit PaillierTactic(GatewayContext ctx) : ctx_(std::move(ctx)) {}

  static const TacticDescriptor& static_descriptor();
  const TacticDescriptor& descriptor() const override { return static_descriptor(); }

  /// Loads (or generates; param "paillier_modulus_bits", default 512 for
  /// simulation — use >= 2048 in production) the keypair and ships the
  /// public key to the cloud. A sealed key that fails to open (another KMS
  /// master key) throws Error(kCryptoFailure); a legacy plaintext blob
  /// loads and is persisted again sealed.
  void setup() override;
  void on_insert(const DocId& id, const doc::Value& value) override;
  void on_delete(const DocId& id, const doc::Value& value) override;
  AggregateResult aggregate(schema::Aggregate agg) override;

 private:
  GatewayContext ctx_;
  std::optional<phe::PaillierKeyPair> keys_;
};

}  // namespace datablinder::core
