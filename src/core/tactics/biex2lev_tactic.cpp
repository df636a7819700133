#include "core/tactics/biex2lev_tactic.hpp"

#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& Biex2LevTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "BIEX-2Lev";
    t.protection_class = schema::ProtectionClass::kClass3;
    // Note: equality is NOT served standalone — a field wanting only EQ
    // should get a dedicated equality tactic. Equality folds into boolean
    // queries only when the field also requests BL (§5.1 status/code/value).
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kBoolean};
    t.boolean_covers_equality = true;
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure, "O(|W|^2) pair-expanded dict inserts", 1}},
        {TacticOperation::kDelete,
         {LeakageLevel::kStructure, "O(|W|^2) lazy delete entries", 1}},
        {TacticOperation::kBooleanSearch,
         {LeakageLevel::kPredicates, "O(sum c) lookups per conjunction", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kSetup,     SpiInterface::kInsertion,
                            SpiInterface::kDocIdGen,  SpiInterface::kSecureEnc,
                            SpiInterface::kUpdate,    SpiInterface::kDeletion,
                            SpiInterface::kBoolQuery, SpiInterface::kBoolResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kUpdate,
                          SpiInterface::kDeletion, SpiInterface::kBoolQuery,
                          SpiInterface::kRetrieval};
    t.challenge = "Storage impl. complexity";
    t.preference = 10;  // read-optimized default over BIEX-ZMF
    // Calibration: pair-expanded updates (|W|^2 dict writes per document);
    // queries pay per-candidate fetch/open like every SSE tactic.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 180.0, 0.0}},
        {TacticOperation::kDelete, {CostShape::kConstant, 180.0, 0.0}},
        {TacticOperation::kBooleanSearch, {CostShape::kLogNPlusK, 120.0, 50.0}},
    };
    return t;
  }();
  return d;
}

void Biex2LevTactic::setup() {
  client_.emplace(ctx_.kms->derive(ctx_.scope("biex2lev"), 32));
}

void Biex2LevTactic::send_tokens(sse::UpdateOp op, const std::vector<std::string>& keywords,
                                 const DocId& id) {
  for (const auto& token : client_->update(op, keywords, id)) {
    ctx_.cloud->call("iex.update",
                     wire::pack({{"scope", Value(ctx_.scope("biex2lev"))},
                                 {"address", Value(token.address)},
                                 {"value", Value(token.value)}}));
  }
}

void Biex2LevTactic::on_insert(const DocId& id, const std::vector<std::string>& keywords) {
  send_tokens(sse::UpdateOp::kAdd, keywords, id);
}

void Biex2LevTactic::on_delete(const DocId& id, const std::vector<std::string>& keywords) {
  send_tokens(sse::UpdateOp::kDelete, keywords, id);
}

std::vector<DocId> Biex2LevTactic::query(const std::vector<std::string>& conj) {
  const sse::IexConjToken token = client_->conj_token(conj);
  doc::Array lists;
  lists.reserve(token.lists.size());
  for (const auto& addresses : token.lists) {
    doc::Array inner;
    inner.reserve(addresses.size());
    for (const auto& a : addresses) inner.emplace_back(a);
    lists.emplace_back(std::move(inner));
  }
  const Bytes reply = ctx_.cloud->call(
      "iex.search", wire::pack({{"scope", Value(ctx_.scope("biex2lev"))},
                                {"lists", Value(std::move(lists))}}));
  const doc::Object obj = wire::unpack(reply);
  std::vector<std::vector<Bytes>> value_lists;
  for (const auto& list : wire::get_arr(obj, "lists")) {
    std::vector<Bytes> values;
    for (const auto& v : list.as_array()) values.push_back(v.as_binary());
    value_lists.push_back(std::move(values));
  }
  return client_->resolve_conj(conj, value_lists);
}

void register_biex2lev_tactic(TacticRegistry& r) {
  r.register_boolean_tactic(Biex2LevTactic::static_descriptor(),
                            [](const GatewayContext& ctx) {
                              return std::make_unique<Biex2LevTactic>(ctx);
                            });
}

}  // namespace datablinder::core
