#include "core/tactics/rnd_tactic.hpp"

#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& RndTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "RND";
    t.protection_class = schema::ProtectionClass::kClass1;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kEquality};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kEqualitySearch,
         {LeakageLevel::kStructure, "O(N) scan + decrypt at gateway", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kSetup,     SpiInterface::kInsertion,
                            SpiInterface::kDocIdGen,  SpiInterface::kSecureEnc,
                            SpiInterface::kRetrieval, SpiInterface::kEqResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kRetrieval,
                          SpiInterface::kEqQuery, SpiInterface::kSetup};
    t.challenge = "Inefficiency";
    t.preference = 10;
    // RND's equality IS the retrieve-and-post-filter shape: every document
    // travels and is AEAD-opened and decoded at the gateway (~6us each with
    // its mget share), then predicate-checked.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 1.0, 0.0}},
        {TacticOperation::kEqualitySearch, {CostShape::kLinear, 120.0, 8.0}},
    };
    return t;
  }();
  return d;
}

void RndTactic::on_insert(const DocId&, const Value&) {
  // The document blob (AES-GCM, random nonce) already covers the value;
  // deliberately no index entry is created.
}

void RndTactic::on_delete(const DocId&, const Value&) {}

std::vector<DocId> RndTactic::equality_search(const Value&) {
  const Bytes reply =
      ctx_.cloud->call("doc.list", wire::pack({{"col", Value(ctx_.collection)}}));
  const doc::Object obj = wire::unpack(reply);
  std::vector<DocId> ids;
  for (const auto& v : wire::get_arr(obj, "ids")) ids.push_back(v.as_string());
  return ids;
}

void register_rnd_tactic(TacticRegistry& r) {
  r.register_field_tactic(RndTactic::static_descriptor(), [](const GatewayContext& ctx) {
    return std::make_unique<RndTactic>(ctx);
  });
}

}  // namespace datablinder::core
