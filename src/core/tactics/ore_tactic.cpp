#include "core/tactics/ore_tactic.hpp"

#include "core/tactics/builtin.hpp"
#include "doc/numeric.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& OreTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "ORE";
    t.protection_class = schema::ProtectionClass::kClass5;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kRange};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure, "O(blocks * slots) right-ct build", 1}},
        {TacticOperation::kDelete, {LeakageLevel::kStructure, "O(1) hash remove", 1}},
        {TacticOperation::kRangeQuery,
         {LeakageLevel::kOrder, "O(N) token-vs-right comparisons server-side", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kInsertion, SpiInterface::kRangeQuery,
                            SpiInterface::kRangeResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kRangeQuery,
                          SpiInterface::kDeletion};
    t.preference = 5;
    // Calibration: right-ciphertext build is block*slot PRF work (~200us);
    // queries pay one comparison per stored row server-side plus the
    // selectivity-scaled fetch/open cost folded into per_unit.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 220.0, 0.0}},
        {TacticOperation::kDelete, {CostShape::kConstant, 30.0, 0.0}},
        {TacticOperation::kRangeQuery, {CostShape::kLinear, 80.0, 6.0}},
    };
    return t;
  }();
  return d;
}

void OreTactic::setup() {
  cipher_.emplace(ctx_.kms->derive(ctx_.scope("ore"), 32),
                  ctx_.collection + "." + ctx_.field, 64);
}

void OreTactic::on_insert(const DocId& id, const Value& value) {
  const auto right = cipher_->encrypt_right(doc::ordered_key(value));
  ctx_.cloud->call("ore.insert", wire::pack({{"col", Value(ctx_.collection)},
                                             {"field", Value(ctx_.field)},
                                             {"id", Value(id)},
                                             {"right", Value(right.serialize())}}));
}

void OreTactic::on_delete(const DocId& id, const Value&) {
  ctx_.cloud->call("ore.remove", wire::pack({{"col", Value(ctx_.collection)},
                                             {"field", Value(ctx_.field)},
                                             {"id", Value(id)}}));
}

std::vector<DocId> OreTactic::range_search(const Value& lo, const Value& hi) {
  const auto left_lo = cipher_->encrypt_left(doc::ordered_key(lo));
  const auto left_hi = cipher_->encrypt_left(doc::ordered_key(hi));
  const Bytes reply =
      ctx_.cloud->call("ore.range", wire::pack({{"col", Value(ctx_.collection)},
                                                {"field", Value(ctx_.field)},
                                                {"left_lo", Value(left_lo.serialize())},
                                                {"left_hi", Value(left_hi.serialize())}}));
  return wire::unpack_ids(reply);
}

void register_ore_tactic(TacticRegistry& r) {
  r.register_field_tactic(OreTactic::static_descriptor(), [](const GatewayContext& ctx) {
    return std::make_unique<OreTactic>(ctx);
  });
}

}  // namespace datablinder::core
