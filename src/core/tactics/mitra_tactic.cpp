#include "core/tactics/mitra_tactic.hpp"

#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& MitraTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "Mitra";
    t.protection_class = schema::ProtectionClass::kClass2;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kEquality};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure, "O(1) PRF + dict insert (forward private)", 1}},
        {TacticOperation::kDelete,
         {LeakageLevel::kStructure, "O(1) lazy delete entry", 1}},
        {TacticOperation::kEqualitySearch,
         {LeakageLevel::kIdentifiers, "O(c_w) address derivations + lookups", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kInsertion, SpiInterface::kDocIdGen,
                            SpiInterface::kSecureEnc, SpiInterface::kUpdate,
                            SpiInterface::kDeletion,  SpiInterface::kEqQuery,
                            SpiInterface::kEqResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kUpdate,
                          SpiInterface::kDeletion, SpiInterface::kEqQuery,
                          SpiInterface::kRetrieval};
    t.challenge = "Local storage";
    t.preference = 10;
    // Calibration: one PRF-derived address + dict write per update; search
    // derives c_w addresses (keyword frequency scales with n).
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 40.0, 0.0}},
        {TacticOperation::kDelete, {CostShape::kConstant, 40.0, 0.0}},
        {TacticOperation::kEqualitySearch, {CostShape::kLinear, 60.0, 5.0}},
    };
    return t;
  }();
  return d;
}

void MitraTactic::setup() {
  const SecretBytes key = ctx_.kms->derive(ctx_.scope("mitra"), 32);
  client_.emplace(key);
  state_key_ = "mitra-counters:" + ctx_.scope("mitra");
  // Recover persisted keyword counters (the tactic's "local storage").
  for (const auto& [keyword, count_bytes] : ctx_.local_store->hgetall(state_key_)) {
    client_->restore_counter(keyword, read_be64(count_bytes));
  }
}

void MitraTactic::send_update(sse::MitraOp op, const std::string& keyword,
                              const DocId& id) {
  const sse::MitraUpdateToken token = client_->update(op, keyword, id);
  ctx_.local_store->hset(state_key_, keyword, be64(client_->counter(keyword)));
  ctx_.cloud->call("mitra.update",
                   wire::pack({{"scope", Value(ctx_.scope("mitra"))},
                               {"address", Value(token.address)},
                               {"value", Value(token.value)}}));
}

void MitraTactic::on_insert(const DocId& id, const Value& value) {
  send_update(sse::MitraOp::kAdd, field_keyword(ctx_.field, value), id);
}

void MitraTactic::on_delete(const DocId& id, const Value& value) {
  send_update(sse::MitraOp::kDelete, field_keyword(ctx_.field, value), id);
}

std::vector<DocId> MitraTactic::equality_search(const Value& value) {
  const std::string keyword = field_keyword(ctx_.field, value);
  const sse::MitraSearchToken token = client_->search_token(keyword);
  doc::Array addresses;
  addresses.reserve(token.addresses.size());
  for (const auto& a : token.addresses) addresses.emplace_back(a);
  const Bytes reply = ctx_.cloud->call(
      "mitra.search", wire::pack({{"scope", Value(ctx_.scope("mitra"))},
                                  {"addresses", Value(std::move(addresses))}}));
  const doc::Object obj = wire::unpack(reply);
  std::vector<Bytes> values;
  for (const auto& v : wire::get_arr(obj, "values")) values.push_back(v.as_binary());
  return client_->resolve(keyword, values);
}

void register_mitra_tactic(TacticRegistry& r) {
  r.register_field_tactic(MitraTactic::static_descriptor(), [](const GatewayContext& ctx) {
    return std::make_unique<MitraTactic>(ctx);
  });
}

}  // namespace datablinder::core
