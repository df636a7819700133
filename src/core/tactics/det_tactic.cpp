#include "core/tactics/det_tactic.hpp"

#include "common/hex.hpp"
#include "core/hot_cache.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& DetTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "DET";
    t.protection_class = schema::ProtectionClass::kClass4;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kEquality,
                           schema::Operation::kBoolean};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert, {LeakageLevel::kEqualities, "O(1) set insert", 1}},
        {TacticOperation::kDelete, {LeakageLevel::kEqualities, "O(1) set remove", 1}},
        {TacticOperation::kEqualitySearch,
         {LeakageLevel::kEqualities, "O(1) set lookup", 1}},
        {TacticOperation::kBooleanSearch,
         {LeakageLevel::kEqualities, "O(t) lookups, gateway combination", 1}},
    };
    t.gateway_interfaces = {
        SpiInterface::kSetup,      SpiInterface::kInsertion,
        SpiInterface::kDocIdGen,   SpiInterface::kSecureEnc,
        SpiInterface::kUpdate,     SpiInterface::kRetrieval,
        SpiInterface::kDeletion,   SpiInterface::kEqQuery,
        SpiInterface::kEqResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kUpdate,
                          SpiInterface::kRetrieval, SpiInterface::kDeletion,
                          SpiInterface::kEqQuery,   SpiInterface::kSetup};
    t.challenge = "-";
    t.preference = 10;
    // Calibration: one AES-SIV label (~10us) + round trip; equality hits
    // pay an mget share + AES-GCM open and decode (~6us) per matching
    // document.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 35.0, 0.0}},
        {TacticOperation::kDelete, {CostShape::kConstant, 35.0, 0.0}},
        {TacticOperation::kEqualitySearch, {CostShape::kLogNPlusK, 60.0, 6.0}},
        {TacticOperation::kBooleanSearch, {CostShape::kLogNPlusK, 90.0, 6.0}},
    };
    return t;
  }();
  return d;
}

void DetTactic::setup() {
  const SecretBytes key = ctx_.kms->derive(ctx_.scope("det"), 32);
  cipher_.emplace(key, ctx_.collection + "." + ctx_.field);
}

Bytes DetTactic::label(const Value& value) const {
  // Deterministic: equal values -> equal labels within this field scope.
  // Labels are pure functions of key material + value, so cached entries
  // (no epoch domain) never go stale.
  if (ctx_.cache != nullptr) {
    const std::string key =
        "det/" + ctx_.scope("det") + "/" + hex_encode(value.scalar_bytes());
    if (auto cached = ctx_.cache->get(key)) return std::move(*cached);
    Bytes l = cipher_->encrypt(value.scalar_bytes());
    ctx_.cache->put(key, l);
    return l;
  }
  return cipher_->encrypt(value.scalar_bytes());
}

void DetTactic::on_insert(const DocId& id, const Value& value) {
  ctx_.cloud->call("det.insert", wire::pack({{"col", Value(ctx_.collection)},
                                             {"field", Value(ctx_.field)},
                                             {"label", Value(label(value))},
                                             {"id", Value(id)}}));
}

void DetTactic::on_delete(const DocId& id, const Value& value) {
  ctx_.cloud->call("det.remove", wire::pack({{"col", Value(ctx_.collection)},
                                             {"field", Value(ctx_.field)},
                                             {"label", Value(label(value))},
                                             {"id", Value(id)}}));
}

std::vector<DocId> DetTactic::equality_search(const Value& value) {
  const Bytes reply =
      ctx_.cloud->call("det.search", wire::pack({{"col", Value(ctx_.collection)},
                                                 {"field", Value(ctx_.field)},
                                                 {"label", Value(label(value))}}));
  const doc::Object obj = wire::unpack(reply);
  std::vector<DocId> ids;
  for (const auto& v : wire::get_arr(obj, "ids")) ids.push_back(v.as_string());
  return ids;
}

void register_det_tactic(TacticRegistry& r) {
  r.register_field_tactic(DetTactic::static_descriptor(), [](const GatewayContext& ctx) {
    return std::make_unique<DetTactic>(ctx);
  });
}

}  // namespace datablinder::core
