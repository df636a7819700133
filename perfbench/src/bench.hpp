// Shared types of the DataBlinder benchmark driver.
//
// A run is a fixed, seeded sequence of gateway operations over a preloaded
// FHIR Observation corpus, executed by one or more closed-loop users
// against the in-process stack Gateway -> RpcClient/Channel -> CloudNode.
// Every answer is checked against a plaintext reference model (Oracle).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "kms/key_manager.hpp"
#include "net/channel.hpp"
#include "net/rpc.hpp"
#include "store/kvstore.hpp"

namespace perfbench {

using datablinder::sse::DocId;
using datablinder::core::FieldBoolQuery;
using datablinder::doc::Document;
using datablinder::doc::Value;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- operations ---------------------------------------------------------------

/// End-to-end latency classes: the Figure 5 write / read / aggregate split.
enum class OpClass : std::uint8_t { kWrite = 0, kRead = 1, kAgg = 2 };
inline constexpr int kOpClasses = 3;
const char* class_name(OpClass c);

enum class OpKind : std::uint8_t {
  kInsert,       // write
  kUpdate,       // write: remove + insert of an existing id
  kEqSearch,     // read: equality search on one field
  kPointRead,    // read: fetch one document by id
  kBoolSearch,   // read: conjunctive boolean search
  kRangeSearch,  // read: inclusive range on `effective`
  kAverage,      // aggregate: average(value)
};
OpClass class_of(OpKind k);

struct Op {
  OpKind kind = OpKind::kInsert;
  Document doc;         // kInsert / kUpdate (id set)
  DocId id;             // kPointRead
  std::string field;    // kEqSearch / kRangeSearch / kAverage
  Value value;          // kEqSearch
  Value lo, hi;         // kRangeSearch
  FieldBoolQuery bool_query;  // kBoolSearch
};

// --- workloads ----------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool analytics_schema = false;  // observation_schema (§5.1) vs benchmark_schema (§5.2)
  std::size_t users = 1;
  std::size_t preload = 0;
  double ops_per_second = 0;      // sequence length = ops_per_second * --seconds
  int passes = 1;                 // timed passes, each on a fresh stack; metrics are medians
};

/// Throws on an unknown name.
WorkloadSpec workload_spec(const std::string& name);

/// The seeded inputs of one run: the preload corpus and one op sequence per
/// user. Document ids are assigned here, never by the gateway.
struct Inputs {
  std::vector<Document> preload;
  std::vector<std::vector<Op>> users;
  std::size_t total_ops() const;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, int seconds);

// --- plaintext reference model --------------------------------------------------

class Oracle {
 public:
  void put(const Document& d) { docs_[d.id] = d; }
  const Document* find(const DocId& id) const;
  std::size_t size() const { return docs_.size(); }
  const std::unordered_map<DocId, Document>& docs() const { return docs_; }

  std::vector<DocId> equal(const std::string& field, const Value& v) const;
  std::vector<DocId> conjunction(const FieldBoolQuery& q) const;
  std::vector<DocId> range(const std::string& field, const Value& lo, const Value& hi) const;
  /// Average as the Paillier tactic computes it: fixed-point sum / count.
  double average(const std::string& field) const;

  /// Sum of plaintext encode_document sizes of the live corpus.
  std::size_t plaintext_bytes() const;

 private:
  std::unordered_map<DocId, Document> docs_;
};

/// Sorted ids of `docs`; false (with a reason) when a returned document
/// differs from the reference copy or the id set differs from `expected`.
bool check_docs(const Oracle& ref, const std::vector<Document>& docs,
                std::vector<DocId> expected, std::string* why);
bool close_enough(double got, double want);
/// A value as the Paillier tactic encodes it: fixed-point, kFixedPointScale.
std::int64_t fixed_point(const Value& v);

// --- the stack ----------------------------------------------------------------

class Tracer;

/// One isolated deployment: cloud node, channel, RPC client and gateway.
/// With a tracer, the client talks to a tracing proxy server that forwards
/// every call to the node.
struct Stack {
  Stack(const WorkloadSpec& spec, Tracer* tracer);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  datablinder::core::CloudNode node;
  datablinder::net::Channel channel;
  std::unique_ptr<datablinder::net::RpcServer> proxy;  // traced stacks only
  std::unique_ptr<datablinder::net::RpcClient> rpc;
  datablinder::kms::KeyManager kms;
  datablinder::store::KvStore local_store;
  std::unique_ptr<datablinder::core::Gateway> gateway;
  std::string collection;
};

/// Builds a stack and outsources the preload corpus: gateway construction,
/// register_schema (tactic setup, Paillier keygen) and insert_many. The
/// set-up thread is sampled throughout (SpeedSampler, probe.hpp).
struct SetupResult {
  std::unique_ptr<Stack> stack;
  double reference_s = 0;  // at the reference host speed
  std::uint64_t round_trips = 0;
};
SetupResult set_up(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer);

// --- running ------------------------------------------------------------------

/// Timings are reported at a fixed reference host speed: the speed at
/// which the probe (probe.hpp) takes this long. A measured time t taken
/// while the probe read p is reported as t * kReferenceProbeUs / p.
inline constexpr double kReferenceProbeUs = 40.0;

inline double at_reference_speed(double measured, double probe_us) {
  return probe_us > 0 ? measured * kReferenceProbeUs / probe_us : measured;
}

/// One timed op: its class, its measured latency and the probe that
/// stands for the host speed during it. With one user that probe combines
/// the probes just before and just after the op with those the sampler took
/// during it, whose time is taken out of the latency; with several, it is
/// the mean of the windows at the barriers that open and close its epoch.
struct Sample {
  OpClass cls = OpClass::kWrite;
  double latency_us = 0;
  double probe_us = 0;

  double reference_us() const { return at_reference_speed(latency_us, probe_us); }
};

/// Latency statistics of a run, at the reference host speed.
struct Timings {
  std::vector<double> latency_us[kOpClasses];  // per class, in op order
  std::size_t ops[kOpClasses] = {};
  double mean_probe_us = 0;

  static Timings of(const std::vector<Sample>& samples);
  double mean_us(OpClass c) const;
  /// One user's throughput: ops / summed op time (the run loop's probes
  /// and checks fall between ops and are not counted).
  double ops_s() const;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;    // first few mismatch reasons
  std::vector<Sample> samples;          // every completed op
  Timings timings;
  /// One user: timings.ops_s(). Several: completed ops / wall time of the
  /// timed epochs, each epoch at the speed its barrier probes read.
  double ops_s = 0;
  std::uint64_t docs_returned = 0;      // search result sizes, summed
  std::uint64_t bytes = 0;              // channel bytes, both directions
  std::uint64_t round_trips = 0;

  void fail(std::string why);
};

/// A stack the sequence runs on, traced or not.
struct Lane {
  Stack* stack = nullptr;
  Tracer* tracer = nullptr;
};

/// Runs the whole sequence (one thread per user), checking every answer,
/// and returns one result per lane. With one user, several lanes run in
/// lockstep: each op on every lane in turn, so they see the same host
/// conditions. With several users the sequence runs in epochs between
/// barriers; answers are kept and checked at the barrier that closes their
/// epoch, outside the timed window. The oracle must hold the preload
/// corpus; it ends holding the final one.
std::vector<RunResult> run_sequence(const std::vector<Lane>& lanes, const Inputs& in,
                                    Oracle& oracle);

/// Final-corpus query set: every status/code/subject value plus the
/// average, compared with the oracle. Adds to r.failed on mismatch.
void check_final_state(Stack& stack, const Oracle& oracle, RunResult& r);

/// Figure 5 decomposition: replays the first `ops` ops of the fig5 sequence
/// through ScenarioA and ScenarioB; returns their ops/s (Timings::ops_s).
struct PaperReplay {
  double sa_ops_s = 0;
  double sb_ops_s = 0;
  std::size_t mismatches = 0;
};
PaperReplay replay_paper_scenarios(const Inputs& in, std::size_t ops);

}  // namespace perfbench
