#include "core/tactics/ope_tactic.hpp"

#include "common/hex.hpp"
#include "core/hot_cache.hpp"
#include "core/tactics/builtin.hpp"
#include "doc/numeric.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& OpeTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "OPE";
    t.protection_class = schema::ProtectionClass::kClass5;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kRange};
    t.serves_aggregates = {schema::Aggregate::kMin, schema::Aggregate::kMax};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert, {LeakageLevel::kOrder, "O(log N) index insert", 1}},
        {TacticOperation::kDelete, {LeakageLevel::kOrder, "O(log N) index remove", 1}},
        {TacticOperation::kRangeQuery,
         {LeakageLevel::kOrder, "O(log N + K) ordered index scan", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kInsertion, SpiInterface::kRangeQuery,
                            SpiInterface::kRangeResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kRangeQuery,
                          SpiInterface::kDeletion};
    t.challenge = "-";
    t.preference = 10;  // index-backed scans beat ORE's linear compare
    // Calibration: OPE encrypt is one AES-SIV pass (~10us, BENCH_crypto
    // BM_OpeEncrypt); per-result work is an mget share (~2us) + AES-GCM open
    // and decode (~4us, perfbench crypto.resolve_us_per_doc; the open alone
    // is BM_AesGcmOpen/256 ≈ 0.3us).
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kLogN, 25.0, 1.5}},
        {TacticOperation::kDelete, {CostShape::kLogN, 25.0, 1.5}},
        {TacticOperation::kRangeQuery, {CostShape::kLogNPlusK, 60.0, 6.0}},
    };
    return t;
  }();
  return d;
}

void OpeTactic::setup() {
  cipher_.emplace(ctx_.kms->derive(ctx_.scope("ope"), 32),
                  ctx_.collection + "." + ctx_.field);
}

Bytes OpeTactic::score(const Value& value) const {
  // Scores are pure functions of key material + value (deterministic
  // monotone injection): cacheable without an epoch domain.
  if (ctx_.cache != nullptr) {
    const std::string key =
        "ope/" + ctx_.scope("ope") + "/" + hex_encode(value.scalar_bytes());
    if (auto cached = ctx_.cache->get(key)) return std::move(*cached);
    Bytes s = cipher_->encrypt(doc::ordered_key(value)).to_bytes();
    ctx_.cache->put(key, s);
    return s;
  }
  return cipher_->encrypt(doc::ordered_key(value)).to_bytes();
}

void OpeTactic::on_insert(const DocId& id, const Value& value) {
  ctx_.cloud->call("ope.insert", wire::pack({{"col", Value(ctx_.collection)},
                                             {"field", Value(ctx_.field)},
                                             {"score", Value(score(value))},
                                             {"id", Value(id)}}));
}

void OpeTactic::on_delete(const DocId& id, const Value& value) {
  ctx_.cloud->call("ope.remove", wire::pack({{"col", Value(ctx_.collection)},
                                             {"field", Value(ctx_.field)},
                                             {"score", Value(score(value))},
                                             {"id", Value(id)}}));
}

std::vector<DocId> OpeTactic::range_search(const Value& lo, const Value& hi) {
  const Bytes reply =
      ctx_.cloud->call("ope.range", wire::pack({{"col", Value(ctx_.collection)},
                                                {"field", Value(ctx_.field)},
                                                {"lo", Value(score(lo))},
                                                {"hi", Value(score(hi))}}));
  const doc::Object obj = wire::unpack(reply);
  std::vector<DocId> ids;
  for (const auto& v : wire::get_arr(obj, "ids")) ids.push_back(v.as_string());
  return ids;
}

AggregateResult OpeTactic::aggregate(schema::Aggregate agg) {
  require(agg == schema::Aggregate::kMin || agg == schema::Aggregate::kMax,
          "OPE serves only min/max aggregates");
  const Bytes reply = ctx_.cloud->call(
      "ope.extreme",
      wire::pack({{"col", Value(ctx_.collection)},
                  {"field", Value(ctx_.field)},
                  {"max", Value(agg == schema::Aggregate::kMax ? 1 : 0)}}));
  const doc::Object obj = wire::unpack(reply);
  AggregateResult out;
  if (!wire::get(obj, "found").as_bool()) return out;
  // Decode the extreme: OPE is an invertible monotone injection, so the
  // gateway recovers the plaintext from the ciphertext alone.
  const auto ct = ppe::Ope128::from_bytes(wire::get_bin(obj, "score"));
  out.value = doc::ordered_key_inverse(cipher_->decrypt(ct));
  out.count = 1;
  return out;
}

void register_ope_tactic(TacticRegistry& r) {
  r.register_field_tactic(OpeTactic::static_descriptor(), [](const GatewayContext& ctx) {
    return std::make_unique<OpeTactic>(ctx);
  });
}

}  // namespace datablinder::core
