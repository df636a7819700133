#include "core/tactics/rangebrc_tactic.hpp"

#include <unordered_set>

#include "doc/numeric.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& RangeBrcTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "RangeBRC";
    t.protection_class = schema::ProtectionClass::kClass3;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kRange};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure, "64 dyadic dict inserts (forward private)", 1}},
        {TacticOperation::kDelete,
         {LeakageLevel::kStructure, "64 lazy delete entries", 1}},
        {TacticOperation::kRangeQuery,
         {LeakageLevel::kPredicates,
          "O(log D) cover-node searches; no stored-value order revealed", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kInsertion, SpiInterface::kDocIdGen,
                            SpiInterface::kSecureEnc, SpiInterface::kUpdate,
                            SpiInterface::kDeletion,  SpiInterface::kRangeQuery,
                            SpiInterface::kRangeResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kUpdate,
                          SpiInterface::kDeletion, SpiInterface::kRangeQuery,
                          SpiInterface::kRetrieval};
    t.challenge = "Storage amplification";
    // Below OPE/ORE on preference: within the same admissible class the
    // policy still prefers leakier-but-cheaper; RangeBRC wins only when
    // the class bound excludes order leakage.
    t.preference = 2;
    // Calibration: 64 dyadic-level SSE updates per insert; queries issue
    // O(log n) cover-node searches plus selectivity-scaled fetch/open.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 1300.0, 0.0}},
        {TacticOperation::kDelete, {CostShape::kConstant, 1300.0, 0.0}},
        {TacticOperation::kRangeQuery, {CostShape::kLogNPlusK, 100.0, 50.0}},
    };
    return t;
  }();
  return d;
}

void RangeBrcTactic::setup() {
  client_.emplace(ctx_.kms->derive(ctx_.scope("rangebrc"), 32),
                  ctx_.collection + "." + ctx_.field);
  state_key_ = "rangebrc-counters:" + ctx_.scope("rangebrc");
  for (const auto& [keyword, count_bytes] : ctx_.local_store->hgetall(state_key_)) {
    client_->restore_counter(keyword, read_be64(count_bytes));
  }
}

void RangeBrcTactic::send_updates(sse::UpdateOp op, const Value& value, const DocId& id) {
  const std::uint64_t x = doc::ordered_key(value);
  for (const auto& token : client_->update(op, x, id)) {
    ctx_.cloud->call("mitra.update",
                     wire::pack({{"scope", Value(ctx_.scope("rangebrc"))},
                                 {"address", Value(token.address)},
                                 {"value", Value(token.value)}}));
  }
  // Persist the 64 touched counters (one per dyadic level).
  for (const auto& node : sse::dyadic_path(x)) {
    const std::string kw = node.keyword(ctx_.collection + "." + ctx_.field);
    ctx_.local_store->hset(state_key_, kw, be64(client_->counter(kw)));
  }
}

void RangeBrcTactic::on_insert(const DocId& id, const Value& value) {
  send_updates(sse::UpdateOp::kAdd, value, id);
}

void RangeBrcTactic::on_delete(const DocId& id, const Value& value) {
  send_updates(sse::UpdateOp::kDelete, value, id);
}

std::vector<DocId> RangeBrcTactic::range_search(const Value& lo, const Value& hi) {
  const auto query =
      client_->range_query(doc::ordered_key(lo), doc::ordered_key(hi));
  std::vector<DocId> out;
  std::unordered_set<DocId> seen;
  for (std::size_t i = 0; i < query.tokens.size(); ++i) {
    if (query.tokens[i].addresses.empty()) continue;  // empty bucket
    doc::Array addresses;
    addresses.reserve(query.tokens[i].addresses.size());
    for (const auto& a : query.tokens[i].addresses) addresses.emplace_back(a);
    const Bytes reply = ctx_.cloud->call(
        "mitra.search", wire::pack({{"scope", Value(ctx_.scope("rangebrc"))},
                                    {"addresses", Value(std::move(addresses))}}));
    const doc::Object obj = wire::unpack(reply);
    std::vector<Bytes> values;
    for (const auto& v : wire::get_arr(obj, "values")) values.push_back(v.as_binary());
    for (auto& id : client_->resolve(query.keywords[i], values)) {
      if (seen.insert(id).second) out.push_back(std::move(id));
    }
  }
  return out;
}

void register_rangebrc_tactic(TacticRegistry& r) {
  r.register_field_tactic(RangeBrcTactic::static_descriptor(),
                          [](const GatewayContext& ctx) {
                            return std::make_unique<RangeBrcTactic>(ctx);
                          });
}

}  // namespace datablinder::core
