#include "workload/scenarios.hpp"

#include <algorithm>
#include <shared_mutex>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "core/tactics/det_tactic.hpp"
#include "core/tactics/mitra_tactic.hpp"
#include "core/tactics/paillier_tactic.hpp"
#include "core/tactics/rnd_tactic.hpp"
#include "core/wire.hpp"
#include "doc/binary_codec.hpp"
#include "fhir/observation.hpp"

namespace datablinder::workload {

using core::wire::pack;
using core::wire::unpack;
using doc::Document;
using doc::Value;

// The tactic parameters of S_B and S_C, so both run one Paillier modulus.
const std::map<std::string, std::string> kTacticParams = {{"paillier_modulus_bits", "512"}};

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

ScenarioB::ScenarioB(ScenarioHarness& h) : h_(h), pool_(core::exec::default_workers()) {
  rt_.schema = schema::Schema("observations");
  rt_.doc_cipher = std::make_unique<crypto::AesGcm>(h.kms.derive("doc/" + rt_.schema.name(), 32));
  auto ctx = [&](const std::string& field) {
    return core::GatewayContext{.cloud = &h.rpc, .local_store = &h.local_store, .kms = &h.kms,
                                .collection = rt_.schema.name(), .field = field,
                                .params = kTacticParams};
  };
  // Hand-wired routing — the inflexibility DataBlinder removes.
  for (const char* field : {"status", "code", "effective", "issued", "value"}) {
    rt_.eq[field].tactic = std::make_unique<core::DetTactic>(ctx(field));
  }
  rt_.eq["subject"].tactic = std::make_unique<core::MitraTactic>(ctx("subject"));
  rt_.eq["performer"].tactic = std::make_unique<core::RndTactic>(ctx("performer"));
  rt_.agg["value"].tactic = std::make_unique<core::PaillierTactic>(ctx("value"));
  for (auto* slots : {&rt_.eq, &rt_.agg}) {
    for (auto& [field, slot] : *slots) slot.tactic->setup();
  }
}

void ScenarioB::insert_document(Document d) {
  if (d.id.empty()) d.id = hex_encode(SecureRng::bytes(12));
  rt_.store(h_.rpc, d);
  const std::vector<core::exec::WritePart> parts = rt_.write_parts(nullptr, &d);
  pool_.run_all(parts.size(), [&](std::size_t i) { parts[i].run(nullptr); });
}

std::size_t ScenarioB::equality_search(const std::string& field, const Value& value) {
  const auto it = rt_.eq.find(field);
  if (it == rt_.eq.end()) {
    throw_error(ErrorCode::kInvalidArgument, "S_B: unsupported search field " + field);
  }
  std::vector<core::DocId> ids;
  {
    std::shared_lock lock(it->second.mutex);
    ids = it->second.tactic->equality_search(value);
  }
  // Retrieval + SecureEnc, then the gateway's exact re-check.
  const std::vector<Document> docs = rt_.resolve(h_.rpc, ids);
  return static_cast<std::size_t>(std::count_if(
      docs.begin(), docs.end(),
      [&](const Document& d) { return core::exec::term_matches(d, field, value); }));
}

double ScenarioB::aggregate_average(const std::string& field) {
  const auto it = rt_.agg.find(field);
  if (it == rt_.agg.end()) {
    throw_error(ErrorCode::kInvalidArgument, "S_B: no aggregate tactic on " + field);
  }
  std::shared_lock lock(it->second.mutex);
  return it->second.tactic->aggregate(schema::Aggregate::kAverage).value;
}

// --- S_C ------------------------------------------------------------------

ScenarioC::ScenarioC(ScenarioHarness& h, const core::TacticRegistry& registry)
    : gateway_(h.rpc, h.kms, h.local_store, registry,
               core::GatewayConfig{kTacticParams}) {
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
