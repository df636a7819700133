#include "core/tactics/mitra_stateless_tactic.hpp"

#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& MitraStatelessTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "Mitra-SL";
    t.protection_class = schema::ProtectionClass::kClass2;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kEquality};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert,
         {LeakageLevel::kEqualities,  // update-pattern keyword equality leaks
          "2 round trips: counter fetch + entry write", 2}},
        {TacticOperation::kDelete,
         {LeakageLevel::kEqualities, "2 round trips, lazy delete entry", 2}},
        {TacticOperation::kEqualitySearch,
         {LeakageLevel::kIdentifiers, "counter fetch + O(c_w) lookups", 2}},
    };
    t.gateway_interfaces = {SpiInterface::kInsertion, SpiInterface::kDocIdGen,
                            SpiInterface::kSecureEnc, SpiInterface::kUpdate,
                            SpiInterface::kDeletion,  SpiInterface::kEqQuery,
                            SpiInterface::kEqResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kUpdate,
                          SpiInterface::kDeletion, SpiInterface::kEqQuery,
                          SpiInterface::kRetrieval};
    t.challenge = "Update-pattern leakage";  // the stateless trade-off
    t.preference = 3;  // below Mitra unless explicitly promoted
    // Calibration: every update pays an extra counter-fetch round trip.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 120.0, 0.0}},
        {TacticOperation::kDelete, {CostShape::kConstant, 120.0, 0.0}},
        {TacticOperation::kEqualitySearch, {CostShape::kLinear, 100.0, 6.0}},
    };
    return t;
  }();
  return d;
}

void MitraStatelessTactic::setup() {
  client_.emplace(ctx_.kms->derive(ctx_.scope("mitrasl"), 32));
  // Deliberately nothing else: no local state, no recovery step.
}

std::uint64_t MitraStatelessTactic::fetch_counter(const std::string& keyword) const {
  const Bytes reply = ctx_.cloud->call(
      "mitrasl.get_counter",
      wire::pack({{"scope", Value(ctx_.scope("mitrasl"))},
                  {"label", Value(client_->counter_label(keyword))}}));
  const doc::Object obj = wire::unpack(reply);
  if (!wire::get(obj, "found").as_bool()) return 0;
  return client_->decode_counter(keyword, wire::get_bin(obj, "blob"));
}

void MitraStatelessTactic::send_update(sse::UpdateOp op, const std::string& keyword,
                                       const DocId& id) {
  const std::uint64_t current = fetch_counter(keyword);
  const sse::MitraUpdateToken token = client_->update(op, keyword, id, current);
  ctx_.cloud->call(
      "mitrasl.update",
      wire::pack({{"scope", Value(ctx_.scope("mitrasl"))},
                  {"label", Value(client_->counter_label(keyword))},
                  {"counter", Value(client_->encode_counter(keyword, current + 1))},
                  {"address", Value(token.address)},
                  {"value", Value(token.value)}}));
}

void MitraStatelessTactic::on_insert(const DocId& id, const Value& value) {
  send_update(sse::UpdateOp::kAdd, field_keyword(ctx_.field, value), id);
}

void MitraStatelessTactic::on_delete(const DocId& id, const Value& value) {
  send_update(sse::UpdateOp::kDelete, field_keyword(ctx_.field, value), id);
}

std::vector<DocId> MitraStatelessTactic::equality_search(const Value& value) {
  const std::string keyword = field_keyword(ctx_.field, value);
  const std::uint64_t count = fetch_counter(keyword);
  if (count == 0) return {};
  const sse::MitraSearchToken token = client_->search_token(keyword, count);
  doc::Array addresses;
  addresses.reserve(token.addresses.size());
  for (const auto& a : token.addresses) addresses.emplace_back(a);
  const Bytes reply = ctx_.cloud->call(
      "mitrasl.search", wire::pack({{"scope", Value(ctx_.scope("mitrasl"))},
                                    {"addresses", Value(std::move(addresses))}}));
  const doc::Object obj = wire::unpack(reply);
  std::vector<Bytes> values;
  for (const auto& v : wire::get_arr(obj, "values")) values.push_back(v.as_binary());
  return client_->resolve(keyword, values);
}

void register_mitra_stateless_tactic(TacticRegistry& r) {
  r.register_field_tactic(MitraStatelessTactic::static_descriptor(),
                          [](const GatewayContext& ctx) {
                            return std::make_unique<MitraStatelessTactic>(ctx);
                          });
}

}  // namespace datablinder::core
