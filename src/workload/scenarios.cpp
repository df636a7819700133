#include "workload/scenarios.hpp"

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "doc/binary_codec.hpp"
#include "fhir/observation.hpp"

namespace datablinder::workload {

using core::wire::pack;
using core::wire::unpack;
using doc::Document;
using doc::Value;

ScenarioHarness::ScenarioHarness(net::ChannelConfig channel_config)
    : cloud(core::GatewayConfig{}, channel_config),
      rpc(cloud.client()),
      cloud_node(cloud.node(0, 0)),
      channel(cloud.channel(0, 0)) {}

// --- S_A ------------------------------------------------------------------

ScenarioA::ScenarioA(ScenarioHarness& h) : h_(h) {
  // A plaintext application would index its searchable fields.
  for (const char* field : {"status", "code", "subject", "effective"}) {
    h_.rpc.call("plain.index",
                pack({{"col", Value("observations")}, {"field", Value(field)}}));
  }
}

void ScenarioA::insert_document(Document d) {
  if (d.id.empty()) d.id = hex_encode(SecureRng::bytes(12));
  h_.rpc.call("plain.put", pack({{"col", Value("observations")},
                                 {"doc", Value(doc::encode_document(d))}}));
}

std::size_t ScenarioA::equality_search(const std::string& field, const Value& value) {
  const Bytes reply = h_.rpc.call(
      "plain.find_eq",
      pack({{"col", Value("observations")}, {"field", Value(field)}, {"value", value}}));
  return core::wire::get_arr(unpack(reply), "docs").size();
}

double ScenarioA::aggregate_average(const std::string& field) {
  const Bytes reply = h_.rpc.call(
      "plain.avg", pack({{"col", Value("observations")}, {"field", Value(field)}}));
  const doc::Object obj = unpack(reply);
  const double sum = core::wire::get(obj, "sum").as_double();
  const auto count = core::wire::get_int(obj, "count");
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

// --- S_B ------------------------------------------------------------------

core::GatewayContext ScenarioB::ctx(const std::string& field) const {
  core::GatewayContext c;
  c.cloud = &h_.rpc;
  c.local_store = &h_.local_store;
  c.kms = &h_.kms;
  c.collection = "observations";
  c.field = field;
  c.params = {{"paillier_modulus_bits", "512"}};
  return c;
}

ScenarioB::ScenarioB(ScenarioHarness& h)
    : h_(h),
      doc_cipher_(h.kms.derive("doc/observations", 32)),
      det_status_(ctx("status")),
      det_code_(ctx("code")),
      det_effective_(ctx("effective")),
      det_issued_(ctx("issued")),
      det_value_(ctx("value")),
      mitra_subject_(ctx("subject")),
      rnd_performer_(ctx("performer")),
      paillier_value_(ctx("value")) {
  det_status_.setup();
  det_code_.setup();
  det_effective_.setup();
  det_issued_.setup();
  det_value_.setup();
  mitra_subject_.setup();
  rnd_performer_.setup();
  paillier_value_.setup();
}

void ScenarioB::insert_document(Document d) {
  if (d.id.empty()) d.id = hex_encode(SecureRng::bytes(12));
  std::unique_lock lock(mutex_);
  const Bytes blob =
      doc_cipher_.seal_random_nonce(doc::encode_document(d), to_bytes(d.id));
  h_.rpc.call("doc.put", pack({{"col", Value("observations")},
                               {"id", Value(d.id)},
                               {"blob", Value(blob)}}));
  // Hand-wired routing — the inflexibility DataBlinder removes.
  det_status_.on_insert(d.id, d.at("status"));
  det_code_.on_insert(d.id, d.at("code"));
  det_effective_.on_insert(d.id, d.at("effective"));
  det_issued_.on_insert(d.id, d.at("issued"));
  det_value_.on_insert(d.id, d.at("value"));
  mitra_subject_.on_insert(d.id, d.at("subject"));
  rnd_performer_.on_insert(d.id, d.at("performer"));
  paillier_value_.on_insert(d.id, d.at("value"));
}

std::size_t ScenarioB::equality_search(const std::string& field, const Value& value) {
  std::shared_lock lock(mutex_);
  std::vector<std::string> ids;
  if (field == "status") ids = det_status_.equality_search(value);
  else if (field == "code") ids = det_code_.equality_search(value);
  else if (field == "effective") ids = det_effective_.equality_search(value);
  else if (field == "issued") ids = det_issued_.equality_search(value);
  else if (field == "value") ids = det_value_.equality_search(value);
  else if (field == "subject") ids = mitra_subject_.equality_search(value);
  else throw_error(ErrorCode::kInvalidArgument, "S_B: unsupported search field " + field);

  // Retrieval + SecureEnc: fetch and decrypt the matches like a real app.
  std::size_t count = 0;
  for (const auto& id : ids) {
    const Bytes reply = h_.rpc.call(
        "doc.get", pack({{"col", Value("observations")}, {"id", Value(id)}}));
    const Bytes blob = core::wire::get_bin(unpack(reply), "blob");
    if (doc_cipher_.open_with_nonce(blob, to_bytes(id))) ++count;
  }
  return count;
}

double ScenarioB::aggregate_average(const std::string& field) {
  require(field == "value", "S_B: only 'value' has an aggregate tactic");
  std::shared_lock lock(mutex_);
  return paillier_value_.aggregate(schema::Aggregate::kAverage).value;
}

// --- S_C ------------------------------------------------------------------

namespace {
core::GatewayConfig scenario_c_config() {
  core::GatewayConfig config;
  config.tactic_params = {{"paillier_modulus_bits", "512"}};
  return config;
}
}  // namespace

ScenarioC::ScenarioC(ScenarioHarness& h, const core::TacticRegistry& registry)
    : gateway_(h.rpc, h.kms, h.local_store, registry, scenario_c_config()) {
  gateway_.register_schema(fhir::benchmark_schema("observations"));
}

void ScenarioC::insert_document(Document d) {
  gateway_.insert("observations", std::move(d));
}

std::size_t ScenarioC::equality_search(const std::string& field, const Value& value) {
  return gateway_.equality_search("observations", field, value).size();
}

double ScenarioC::aggregate_average(const std::string& field) {
  return gateway_.aggregate("observations", field, schema::Aggregate::kAverage).value;
}

}  // namespace datablinder::workload
