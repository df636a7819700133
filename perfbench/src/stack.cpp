#include "core/tactics/builtin.hpp"
#include "fhir/observation.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = datablinder::core;

namespace {
const core::TacticRegistry& registry() {
  struct Builtin {
    Builtin() { core::register_builtin_tactics(reg); }
    core::TacticRegistry reg;
  };
  static const Builtin builtin;
  return builtin.reg;
}
}  // namespace

Stack::Stack(const WorkloadSpec& spec, Tracer* tracer) : collection("observations") {
  if (tracer != nullptr) proxy = tracer->make_proxy(node);
  rpc = std::make_unique<datablinder::net::RpcClient>(proxy ? *proxy : node.rpc(), channel);
  // The default GatewayConfig (journal, cache, adaptive selection,
  // replication and sharding off) with the scenarios' Paillier modulus.
  core::GatewayConfig config;
  config.tactic_params = {{"paillier_modulus_bits", "512"}};
  gateway = std::make_unique<core::Gateway>(*rpc, kms, local_store, registry(), config);
  gateway->register_schema(spec.analytics_schema
                               ? datablinder::fhir::observation_schema(collection)
                               : datablinder::fhir::benchmark_schema(collection));
}

SetupResult set_up(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer) {
  SetupResult r;
  const SpeedSampler sampler;
  const std::int64_t t0 = now_ns();
  r.stack = std::make_unique<Stack>(spec, tracer);
  r.stack->gateway->insert_many(r.stack->collection, in.preload);
  const std::int64_t t1 = now_ns();
  const SpeedReading during = sampler.reading(t0, t1);
  r.reference_s = at_reference_speed(static_cast<double>(t1 - t0) / 1e3 - during.sampling_us,
                                     interval_probe_us(during, {})) /
                  1e6;
  r.round_trips = r.stack->channel.stats().round_trips.load();
  return r;
}

}  // namespace perfbench
