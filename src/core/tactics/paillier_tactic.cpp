#include "core/tactics/paillier_tactic.hpp"

#include <cmath>

#include "core/metrics.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using bigint::BigInt;
using doc::Value;

const TacticDescriptor& PaillierTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "Paillier";
    // Semantically secure ciphertexts: nothing beyond structure leaks.
    t.protection_class = schema::ProtectionClass::kClass1;
    t.serves_operations = {schema::Operation::kInsert};
    t.serves_aggregates = {schema::Aggregate::kSum, schema::Aggregate::kAverage,
                           schema::Aggregate::kCount};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "Paillier keygen", 1}},
        // The key holder encrypts in the Damgard-Jurik-Nielsen variant,
        // (1 + m*n) * h_s^alpha with a short alpha on a base fixed per
        // key: semantic security then rests on DCR plus the assumption
        // that h_s^alpha for a short alpha is indistinguishable from a
        // uniform n-th residue. What the cloud sees is unchanged.
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure,
          "1 Paillier encryption (fixed base h_s, 2 half-width table walks; "
          "DCR + short-exponent assumption)",
          1}},
        {TacticOperation::kSum,
         {LeakageLevel::kStructure, "O(1) running product cloud-side + 1 decrypt", 1}},
        {TacticOperation::kAverage,
         {LeakageLevel::kStructure, "sum protocol + gateway division", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kSetup, SpiInterface::kInsertion,
                            SpiInterface::kAggFunctionResolution};
    t.cloud_interfaces = {SpiInterface::kSetup, SpiInterface::kInsertion,
                          SpiInterface::kAggFunction};
    t.challenge = "Key management";
    t.preference = 10;
    t.updates_read_fixed_keys = true;
    // Calibration (512-bit n, BENCH_crypto.json): an insert is one
    // fixed-base encryption (BM_PaillierEncryptCrt/512, ~25 us,
    // fixed_base_refresh) plus the agg.insert round trip (~25 us, as DET's
    // prior counts it), so it still sorts ahead of DET, Mitra and OPE among
    // a write's index steps; a sum or average is the cloud's O(1) running
    // product plus one CRT decrypt at the gateway (BM_PaillierDecrypt/512,
    // ~83 us, kernel_refresh).
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 50.0, 0.0}},
        {TacticOperation::kSum, {CostShape::kConstant, 85.0, 0.0}},
        {TacticOperation::kAverage, {CostShape::kConstant, 85.0, 0.0}},
    };
    return t;
  }();
  return d;
}

void PaillierTactic::setup() {
  const std::string key_slot = "paillier-keys:" + ctx_.scope("paillier");
  // The keypair is persisted sealed under a KMS-derived key, bound to its
  // scope, like every other tactic's key material.
  const std::string seal_scope = ctx_.scope("paillier-key");
  const SecretBytes seal_key = ctx_.kms->derive(seal_scope, 32);
  const Bytes aad = to_bytes(seal_scope);
  if (auto stored = ctx_.local_store->get(key_slot)) {
    bool legacy = false;
    keys_ = phe::open_keypair(*stored, seal_key, aad, &legacy);
    // A plaintext blob from before sealing is replaced by the sealed form.
    if (legacy) ctx_.local_store->set(key_slot, phe::seal_keypair(*keys_, seal_key, aad));
    secure_wipe(*stored);
  } else {
    const int bits = ctx_.param_int("paillier_modulus_bits", 512);
    keys_ = phe::paillier_generate(static_cast<std::size_t>(bits));
    ctx_.local_store->set(key_slot, phe::seal_keypair(*keys_, seal_key, aad));
  }
  // Montgomery contexts, the CRT residue system and this key's fixed-base
  // tables when p/q are known, and an optional randomizer pool
  // ("paillier_pool" = pool low-water mark, 0 disables) refilled by the
  // fixed-base routine.
  const int pool = ctx_.param_int("paillier_pool", 0);
  keys_->priv.pub = keys_->pub;
  keys_->priv.init_fast_paths(pool > 0 ? static_cast<std::size_t>(pool) : 0);
  keys_->pub = keys_->priv.pub;
  // Which route this field's inserts take: a key persisted without p and q
  // encrypts on the full-width public path.
  if (ctx_.perf) {
    ctx_.perf->incr(keys_->priv.has_crt() ? "core.crypto.paillier.setup.crt"
                                          : "core.crypto.paillier.setup.public");
  }
  ctx_.cloud->call("agg.setup", wire::pack({{"scope", Value(ctx_.scope("paillier"))},
                                            {"n", Value(keys_->pub.n.to_bytes())}}));
}

void PaillierTactic::on_insert(const DocId& id, const Value& value) {
  const auto fixed = static_cast<std::int64_t>(
      std::llround(value.as_double() * static_cast<double>(kFixedPointScale)));
  bool pooled = false;
  const BigInt ct = keys_->priv.encrypt_i64(fixed, &pooled);
  if (ctx_.perf) {
    ctx_.perf->incr("core.crypto.paillier.encrypt");
    if (keys_->priv.pub.pool) {
      // One event per encrypt: hit-rate = hits / (hits + misses), summed
      // over every Paillier field.
      ctx_.perf->incr(pooled ? "core.crypto.paillier.pool.hit"
                             : "core.crypto.paillier.pool.miss");
    }
  }
  // Every ciphertext at n²'s byte width, so its length says nothing about
  // its value.
  Bytes ct_bytes = ct.to_bytes(keys_->priv.pub.n_squared.byte_length());
  ctx_.cloud->call("agg.insert", wire::pack({{"scope", Value(ctx_.scope("paillier"))},
                                             {"id", Value(id)},
                                             {"ct", Value(std::move(ct_bytes))}}));
}

void PaillierTactic::on_delete(const DocId& id, const Value&) {
  ctx_.cloud->call("agg.remove", wire::pack({{"scope", Value(ctx_.scope("paillier"))},
                                             {"id", Value(id)}}));
}

AggregateResult PaillierTactic::aggregate(schema::Aggregate agg) {
  const Bytes reply = ctx_.cloud->call(
      "agg.sum", wire::pack({{"scope", Value(ctx_.scope("paillier"))}}));
  const doc::Object obj = wire::unpack(reply);
  AggregateResult out;
  out.count = static_cast<std::uint64_t>(wire::get_int(obj, "count"));
  if (agg == schema::Aggregate::kCount) {
    out.value = static_cast<double>(out.count);
    return out;
  }
  if (out.count == 0) return out;
  const BigInt sum_ct = BigInt::from_bytes(wire::get_bin(obj, "sum_ct"));
  if (ctx_.perf) ctx_.perf->incr("core.crypto.paillier.decrypt");
  const double sum = static_cast<double>(keys_->priv.decrypt(sum_ct).to_i64()) /
                     static_cast<double>(kFixedPointScale);
  out.value = (agg == schema::Aggregate::kAverage)
                  ? sum / static_cast<double>(out.count)
                  : sum;
  return out;
}

void register_paillier_tactic(TacticRegistry& r) {
  r.register_field_tactic(PaillierTactic::static_descriptor(),
                          [](const GatewayContext& ctx) {
                            return std::make_unique<PaillierTactic>(ctx);
                          });
}

}  // namespace datablinder::core
