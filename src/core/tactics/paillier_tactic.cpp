#include "core/tactics/paillier_tactic.hpp"

#include <cmath>

#include "core/hot_cache.hpp"
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
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure, "1 Paillier encryption (2 modexp)", 1}},
        {TacticOperation::kSum,
         {LeakageLevel::kStructure, "O(N) modmul fold cloud-side + 1 decrypt", 1}},
        {TacticOperation::kAverage,
         {LeakageLevel::kStructure, "sum protocol + gateway division", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kSetup, SpiInterface::kInsertion,
                            SpiInterface::kAggFunctionResolution};
    t.cloud_interfaces = {SpiInterface::kSetup, SpiInterface::kInsertion,
                          SpiInterface::kAggFunction};
    t.challenge = "Key management";
    t.preference = 10;
    // Calibration: Paillier encrypt with the Montgomery randomizer pool
    // (~700us at 2048-bit n^2, BENCH_crypto BM_PaillierEncrypt); aggregates
    // fold server-side and pay one CRT decrypt at the gateway.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 700.0, 0.0}},
        {TacticOperation::kSum, {CostShape::kLinear, 500.0, 2.0}},
        {TacticOperation::kAverage, {CostShape::kLinear, 500.0, 2.0}},
    };
    return t;
  }();
  return d;
}

void PaillierTactic::setup() {
  const std::string key_slot = "paillier-keys:" + ctx_.scope("paillier");
  if (auto stored = ctx_.local_store->get(key_slot)) {
    // Recover a previously generated keypair: n || lambda || mu [|| p || q],
    // each length-prefixed. The factor fields are absent in blobs persisted
    // before CRT decryption existed — those keys simply stay on the
    // lambda/mu path.
    std::size_t off = 0;
    auto take = [&]() {
      const std::size_t n = read_be32(BytesView(*stored).subspan(off));
      off += 4;
      BigInt v = BigInt::from_bytes(BytesView(*stored).subspan(off, n));
      off += n;
      return v;
    };
    phe::PaillierKeyPair kp;
    kp.pub.n = take();
    kp.pub.n_squared = kp.pub.n * kp.pub.n;
    kp.priv.lambda = take();
    kp.priv.mu = take();
    if (off < stored->size()) {
      kp.priv.p = take();
      kp.priv.q = take();
    }
    kp.priv.pub = kp.pub;
    keys_ = std::move(kp);
  } else {
    const int bits = ctx_.param_int("paillier_modulus_bits", 512);
    keys_ = phe::paillier_generate(static_cast<std::size_t>(bits));
    Bytes blob;
    auto put = [&](const BigInt& v) {
      const Bytes b = v.to_bytes();
      append(blob, be32(static_cast<std::uint32_t>(b.size())));
      append(blob, b);
    };
    put(keys_->pub.n);
    put(keys_->priv.lambda);
    put(keys_->priv.mu);
    put(keys_->priv.p);
    put(keys_->priv.q);
    ctx_.local_store->set(key_slot, std::move(blob));
  }
  // Montgomery contexts + optional randomizer pool ("paillier_pool" = pool
  // low-water mark, 0 disables) + CRT residue system when p/q are known.
  // The keypair is persisted, so re-registrations see the same modulus:
  // draw the contexts from the gateway's shared per-modulus store when a
  // hot cache is wired, and let init_fast_paths keep them (idempotent).
  if (ctx_.cache != nullptr) {
    if (keys_->pub.n_squared.is_zero()) {
      keys_->pub.n_squared = keys_->pub.n * keys_->pub.n;
    }
    keys_->pub.mont_n = ctx_.cache->montgomery(keys_->pub.n);
    keys_->pub.mont_n2 = ctx_.cache->montgomery(keys_->pub.n_squared);
  }
  const int pool = ctx_.param_int("paillier_pool", 0);
  keys_->pub.init_fast_paths(pool > 0 ? static_cast<std::size_t>(pool) : 0);
  keys_->priv.pub = keys_->pub;
  keys_->priv.init_fast_paths();
  ctx_.cloud->call("agg.setup", wire::pack({{"scope", Value(ctx_.scope("paillier"))},
                                            {"n", Value(keys_->pub.n.to_bytes())}}));
}

void PaillierTactic::on_insert(const DocId& id, const Value& value) {
  const auto fixed = static_cast<std::int64_t>(
      std::llround(value.as_double() * static_cast<double>(kFixedPointScale)));
  // The tactic's exclusive slot lock serializes on_insert, so nothing else
  // takes from this pool between the two reads of hits().
  const auto& pool = keys_->pub.pool;
  const std::uint64_t hits_before = pool ? pool->hits() : 0;
  const BigInt ct = keys_->pub.encrypt_i64(fixed);
  if (ctx_.perf) {
    ctx_.perf->incr("core.crypto.paillier.encrypt");
    if (pool) {
      // One event per encrypt: hit-rate = hits / (hits + misses), summed
      // over every Paillier field.
      ctx_.perf->incr(pool->hits() > hits_before ? "core.crypto.paillier.pool.hit"
                                                 : "core.crypto.paillier.pool.miss");
    }
  }
  ctx_.cloud->call("agg.insert", wire::pack({{"scope", Value(ctx_.scope("paillier"))},
                                             {"id", Value(id)},
                                             {"ct", Value(ct.to_bytes())}}));
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
