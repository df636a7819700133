#include "core/tactics/sophos_tactic.hpp"

#include "core/metrics.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Value;

const TacticDescriptor& SophosTactic::static_descriptor() {
  static const TacticDescriptor d = [] {
    TacticDescriptor t;
    t.name = "Sophos";
    t.protection_class = schema::ProtectionClass::kClass2;
    t.serves_operations = {schema::Operation::kInsert, schema::Operation::kEquality};
    t.operations = {
        {TacticOperation::kInit, {LeakageLevel::kStructure, "RSA keygen", 1}},
        {TacticOperation::kInsert,
         {LeakageLevel::kStructure, "1 RSA private op + dict insert", 1}},
        {TacticOperation::kEqualitySearch,
         {LeakageLevel::kIdentifiers, "c_w RSA public ops server-side", 1}},
    };
    t.gateway_interfaces = {SpiInterface::kSetup,     SpiInterface::kInsertion,
                            SpiInterface::kDocIdGen,  SpiInterface::kSecureEnc,
                            SpiInterface::kEqQuery,   SpiInterface::kEqResolution};
    t.cloud_interfaces = {SpiInterface::kSetup, SpiInterface::kInsertion,
                          SpiInterface::kEqQuery, SpiInterface::kRetrieval};
    t.challenge = "Key management";
    t.preference = 5;  // below Mitra: no deletions, heavier updates
    // Calibration: one RSA private op per update, stepped back by CRT at
    // 768 bits (BENCH_crypto.json kernel_refresh BM_SophosUpdate, ~149 us).
    t.cost.ops = {
        {TacticOperation::kInsert, {CostShape::kConstant, 150.0, 0.0}},
        {TacticOperation::kEqualitySearch, {CostShape::kLinear, 300.0, 10.0}},
    };
    return t;
  }();
  return d;
}

void SophosTactic::setup() {
  const SecretBytes prf_key = ctx_.kms->derive(ctx_.scope("sophos"), 32);
  const int modulus_bits = ctx_.param_int("sophos_modulus_bits", 768);
  client_.emplace(prf_key, static_cast<std::size_t>(modulus_bits));
  const sse::SophosPublicParams params = client_->public_params();
  ctx_.cloud->call("sophos.setup", wire::pack({{"scope", Value(ctx_.scope("sophos"))},
                                               {"n", Value(params.n.to_bytes())},
                                               {"e", Value(params.e.to_bytes())}}));
}

void SophosTactic::on_insert(const DocId& id, const Value& value) {
  const sse::SophosUpdateToken token =
      client_->update(field_keyword(ctx_.field, value), id);
  if (ctx_.perf) ctx_.perf->incr("core.crypto.sophos.trapdoor");
  ctx_.cloud->call("sophos.update", wire::pack({{"scope", Value(ctx_.scope("sophos"))},
                                                {"ut", Value(token.ut)},
                                                {"value", Value(token.value)}}));
}

void SophosTactic::on_delete(const DocId&, const Value&) {
  throw_error(ErrorCode::kInvalidArgument,
              "Sophos is append-only: deletion is not part of the construction");
}

std::vector<DocId> SophosTactic::equality_search(const Value& value) {
  const auto token = client_->search_token(field_keyword(ctx_.field, value));
  if (!token) return {};  // keyword never inserted
  if (ctx_.perf) ctx_.perf->incr("core.crypto.sophos.search_steps", token->count);
  const Bytes reply = ctx_.cloud->call(
      "sophos.search",
      wire::pack({{"scope", Value(ctx_.scope("sophos"))},
                  {"kw_token", Value(token->kw_token)},
                  {"st", Value(token->st_current)},
                  {"count", Value(static_cast<std::int64_t>(token->count))}}));
  return wire::unpack_ids(reply);
}

void register_sophos_tactic(TacticRegistry& r) {
  r.register_field_tactic(SophosTactic::static_descriptor(),
                          [](const GatewayContext& ctx) {
                            return std::make_unique<SophosTactic>(ctx);
                          });
}

}  // namespace datablinder::core
