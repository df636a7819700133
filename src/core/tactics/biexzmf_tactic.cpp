#include "core/tactics/biexzmf_tactic.hpp"

#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& BiexZmfTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "BIEX-ZMF";
    t.protection_class = schema::ProtectionClass::kClass3;
    // Note: equality is NOT served standalone — a field wanting only EQ
    // should get a dedicated equality tactic. Equality folds into boolean
    // queries only when the field also requests BL (§5.1 status/code/value).
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kBoolean};
    t.boolean_covers_equality = true;
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "O(1)", 0}},
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure, "O(|W|) filter builds + dict inserts", 1}},
        {TacticOperation::kDelete,
         {LeakageLevel::kStructure, "O(|W|) lazy delete entries", 1}},
        {TacticOperation::kBooleanSearch,
         {LeakageLevel::kPredicates,
          "O(c_w1 * t) filter probes; candidates re-verified at gateway", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kSetup,     SpiInterface::kInsertion,
                            SpiInterface::kDocIdGen,  SpiInterface::kSecureEnc,
                            SpiInterface::kUpdate,    SpiInterface::kDeletion,
                            SpiInterface::kBoolQuery, SpiInterface::kBoolResolution};
    t.cloud_interfaces = {SpiInterface::kInsertion, SpiInterface::kUpdate,
                          SpiInterface::kDeletion, SpiInterface::kBoolQuery,
                          SpiInterface::kRetrieval};
    t.challenge = "Storage impl. complexity";
    t.preference = 5;  // space-optimized alternative; 2Lev is the default
    // Calibration: per-keyword filter builds on update; probe-heavy
    // queries with gateway re-verification of false positives.
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 220.0, 0.0}},
        {TacticOperation::kDelete, {CostShape::kConstant, 220.0, 0.0}},
        {TacticOperation::kBooleanSearch, {CostShape::kLinear, 150.0, 12.0}},
    };
    return t;
  }();
  return d;
}

void BiexZmfTactic::setup() {
  sse::ZmfFilterParams params;
  params.filter_bits =
      static_cast<std::size_t>(ctx_.param_int("zmf_filter_bits", 256));
  params.num_hashes = static_cast<std::size_t>(ctx_.param_int("zmf_num_hashes", 4));
  client_.emplace(ctx_.kms->derive(ctx_.scope("biexzmf"), 32), params);
  ctx_.cloud->call(
      "zmf.setup",
      wire::pack({{"scope", Value(ctx_.scope("biexzmf"))},
                  {"filter_bits", Value(static_cast<std::int64_t>(params.filter_bits))},
                  {"num_hashes", Value(static_cast<std::int64_t>(params.num_hashes))}}));
}

void BiexZmfTactic::send_tokens(sse::UpdateOp op, const std::vector<std::string>& keywords,
                                const DocId& id) {
  for (const auto& token : client_->update(op, keywords, id)) {
    ctx_.cloud->call("zmf.update", wire::pack({{"scope", Value(ctx_.scope("biexzmf"))},
                                               {"address", Value(token.address)},
                                               {"value", Value(token.value)},
                                               {"salt", Value(token.salt)},
                                               {"filter", Value(token.filter)}}));
  }
}

void BiexZmfTactic::on_insert(const DocId& id, const std::vector<std::string>& keywords) {
  send_tokens(sse::UpdateOp::kAdd, keywords, id);
}

void BiexZmfTactic::on_delete(const DocId& id, const std::vector<std::string>& keywords) {
  send_tokens(sse::UpdateOp::kDelete, keywords, id);
}

std::vector<DocId> BiexZmfTactic::query(const std::vector<std::string>& conj) {
  const sse::ZmfConjToken token = client_->conj_token(conj);
  doc::Array addresses, tokens;
  addresses.reserve(token.addresses.size());
  for (const auto& a : token.addresses) addresses.emplace_back(a);
  for (const auto& kt : token.keyword_tokens) tokens.emplace_back(kt);
  const Bytes reply = ctx_.cloud->call(
      "zmf.search", wire::pack({{"scope", Value(ctx_.scope("biexzmf"))},
                                {"addresses", Value(std::move(addresses))},
                                {"tokens", Value(std::move(tokens))}}));
  const doc::Object obj = wire::unpack(reply);
  std::vector<Bytes> values;
  for (const auto& v : wire::get_arr(obj, "values")) values.push_back(v.as_binary());
  return client_->resolve_conj(conj, values);
}

void register_biexzmf_tactic(TacticRegistry& r) {
  r.register_boolean_tactic(BiexZmfTactic::static_descriptor(),
                            [](const GatewayContext& ctx) {
                              return std::make_unique<BiexZmfTactic>(ctx);
                            });
}

}  // namespace datablinder::core
