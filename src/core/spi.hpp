// Service Provider Interface (SPI) — the tactic abstraction model of
// paper §3.1 (Fig. 1) and the pluggable architecture of §4.2 (Table 1).
//
// A *tactic* packages one or more distributed protocol operations; each
// operation is reified with a leakage profile (Fuller et al. taxonomy) and
// performance metrics. Tactic providers implement the gateway-side
// strategy classes below (and register cloud-side RPC handlers); the
// middleware core loads the right implementation at runtime via the
// TacticRegistry (strategy pattern).
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "doc/value.hpp"
#include "kms/key_manager.hpp"
#include "net/rpc.hpp"
#include "schema/schema.hpp"
#include "sse/index_common.hpp"
#include "store/kvstore.hpp"

namespace datablinder::core {

using sse::DocId;

/// The leakage lattice (LeakageLevel, TacticOperation and the per-class
/// ceiling table) lives in schema/leakage.hpp — the single definition site
/// shared with the policy engine and dblint's leakage-conformance pass.
using schema::LeakageLevel;
using schema::TacticOperation;
using schema::to_string;  // to_string(LeakageLevel) / to_string(TacticOperation)

/// The concrete service interfaces of Table 1. Tactics advertise which they
/// implement on each side; the Table 2 bench prints these counts.
enum class SpiInterface : std::uint8_t {
  kInsertion,
  kDocIdGen,
  kSecureEnc,
  kUpdate,
  kRetrieval,
  kDeletion,
  kEqQuery,
  kEqResolution,
  kBoolQuery,
  kBoolResolution,
  kRangeQuery,
  kRangeResolution,
  kAggFunction,
  kAggFunctionResolution,
  kSetup,
};

std::string to_string(SpiInterface spi);

/// Per-operation reification (Fig. 1): leakage + performance metrics.
struct OperationProfile {
  LeakageLevel leakage = LeakageLevel::kStructure;
  /// Algorithmic cost descriptor, e.g. "O(c_w) dict lookups".
  std::string complexity;
  /// Protocol round trips between gateway and cloud per call.
  int round_trips = 1;
};

/// Asymptotic shape of an operation's predicted cost in the observed
/// collection cardinality n (the machine-readable twin of the
/// OperationProfile::complexity prose).
enum class CostShape : std::uint8_t {
  kConstant,   // base
  kLogN,       // base + per_unit * log2(1 + n)
  kLinear,     // base + per_unit * n
  kLogNPlusK,  // base + per_unit * (log2(1+n) + selectivity * n)  — index
               // descent plus K = selectivity*n per-result work
};

struct OpCostPrior {
  CostShape shape = CostShape::kConstant;
  /// Fixed per-call cost: crypto + one round trip. Calibration constants
  /// are seeded from BENCH_crypto.json (see each tactic's table).
  double base_us = 0.0;
  /// Cost per scale unit under `shape`.
  double per_unit_us = 0.0;
};

/// Static cost priors, one per operation — what the cost model falls back
/// on for a tactic that has never executed (and blends with live EWMA
/// evidence once it has).
struct CostProfile {
  std::map<TacticOperation, OpCostPrior> ops;

  double predict_us(TacticOperation op, std::uint64_t n, double selectivity) const {
    auto it = ops.find(op);
    if (it == ops.end()) return 0.0;
    const OpCostPrior& p = it->second;
    const double nn = static_cast<double>(n);
    switch (p.shape) {
      case CostShape::kConstant: return p.base_us;
      case CostShape::kLogN: return p.base_us + p.per_unit_us * std::log2(1.0 + nn);
      case CostShape::kLinear: return p.base_us + p.per_unit_us * nn;
      case CostShape::kLogNPlusK:
        return p.base_us +
               p.per_unit_us * (std::log2(1.0 + nn) + selectivity * nn);
    }
    return p.base_us;
  }
};

/// Static description of a tactic — everything the policy engine and the
/// Table 2 reproduction need.
struct TacticDescriptor {
  std::string name;
  /// Protection class this tactic provides when applied to a field
  /// (weakest-link input, §3.2). Aggregate-only tactics (Paillier) are
  /// semantically secure: Class 1.
  schema::ProtectionClass protection_class = schema::ProtectionClass::kClass1;
  /// Which schema-level operations the tactic can serve.
  std::set<schema::Operation> serves_operations;
  std::set<schema::Aggregate> serves_aggregates;
  /// Per-operation leakage/perf reification.
  std::map<TacticOperation, OperationProfile> operations;
  /// SPI coverage (Table 1 / Table 2 interface counts).
  std::set<SpiInterface> gateway_interfaces;
  std::set<SpiInterface> cloud_interfaces;
  /// Table 2 "challenge" column; "-" where the paper names none.
  std::string challenge = "-";
  /// Tie-break preference when several tactics qualify (higher wins).
  int preference = 0;
  /// Static cost priors for the adaptive cost model (cost_model.hpp).
  /// Empty profiles predict 0 — the model then leans entirely on observed
  /// evidence for this tactic.
  CostProfile cost;
  /// True when equality predicates can be folded into this tactic's
  /// boolean queries (the paper's §5.1 selects only BIEX for [EQ, BL]).
  bool boolean_covers_equality = false;
  /// True when on_insert/on_delete read only key material fixed at setup
  /// and advance no gateway-side state, so the gateway runs them under the
  /// tactic's shared lock: concurrently with each other and with queries.
  bool updates_read_fixed_keys = false;
};

class PerfRegistry;

/// Everything a gateway-side tactic implementation receives (the "tactic
/// commonalities" of §4.2: cloud channel, key management, local repository,
/// field scope).
struct GatewayContext {
  net::RpcClient* cloud = nullptr;         // communication channel to the cloud
  store::KvStore* local_store = nullptr;   // gateway-side repository (Redis role)
  kms::KeyManager* kms = nullptr;          // key management integration
  PerfRegistry* perf = nullptr;            // gateway metrics (null in bare tests)
  std::string collection;
  std::string field;  // empty for collection-scoped (boolean) tactics

  /// Free-form tactic parameters from the gateway configuration (e.g.
  /// "paillier_modulus_bits"). Tactics read them with param_int().
  std::map<std::string, std::string> params;

  std::string scope(const std::string& tactic) const {
    return tactic + "/" + collection + "/" + field;
  }

  /// Reads an integer tactic parameter. Malformed values surface as
  /// Error(kInvalidArgument) naming the parameter, never as raw std::stoi
  /// exceptions.
  int param_int(const std::string& name, int fallback) const {
    auto it = params.find(name);
    if (it == params.end()) return fallback;
    try {
      std::size_t consumed = 0;
      const int value = std::stoi(it->second, &consumed);
      if (consumed != it->second.size()) {
        throw_error(ErrorCode::kInvalidArgument,
                    "tactic param '" + name + "': trailing garbage in '" +
                        it->second + "'");
      }
      return value;
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {  // std::stoi invalid_argument/out_of_range
      throw_error(ErrorCode::kInvalidArgument,
                  "tactic param '" + name + "': not an integer: '" + it->second + "'");
    }
  }
};

/// Aggregate protocol result (gateway-side, after AggFunctionResolution).
struct AggregateResult {
  double value = 0.0;
  std::uint64_t count = 0;
};

/// Gateway-side strategy for a field-scoped tactic. Unsupported operations
/// throw Error(kInvalidArgument) from the defaults; the policy engine never
/// routes an operation to a tactic that does not serve it.
class FieldTactic {
 public:
  virtual ~FieldTactic() = default;

  virtual const TacticDescriptor& descriptor() const = 0;

  /// Mandatory for all tactics (§4.2): key material + index provisioning.
  virtual void setup() = 0;

  /// Update-protocol hooks, invoked by the middleware core per document.
  virtual void on_insert(const DocId& id, const doc::Value& value);
  virtual void on_delete(const DocId& id, const doc::Value& value);

  /// Query protocols.
  virtual std::vector<DocId> equality_search(const doc::Value& value);
  virtual std::vector<DocId> range_search(const doc::Value& lo, const doc::Value& hi);
  virtual AggregateResult aggregate(schema::Aggregate agg);
};

/// Gateway-side strategy for a collection-scoped boolean tactic (BIEX
/// family): indexes the cross-field keyword set of each document.
class BooleanTactic {
 public:
  virtual ~BooleanTactic() = default;

  virtual const TacticDescriptor& descriptor() const = 0;
  virtual void setup() = 0;

  virtual void on_insert(const DocId& id, const std::vector<std::string>& keywords) = 0;
  virtual void on_delete(const DocId& id, const std::vector<std::string>& keywords) = 0;

  /// One conjunction of opaque keywords (the core answers a disjunction
  /// one conjunction at a time). Each id appears once; the result may hold
  /// false positives when the underlying structure is probabilistic
  /// (IEX-ZMF), as the core re-verifies every candidate after decryption.
  virtual std::vector<DocId> query(const std::vector<std::string>& conj) = 0;
};

/// Canonical keyword encoding for SSE tactics: "<field>:<hex(scalar)>".
std::string field_keyword(const std::string& field, const doc::Value& value);

}  // namespace datablinder::core
