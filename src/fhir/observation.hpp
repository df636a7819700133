// FHIR-style Observation documents (paper §5.1).
//
// Synthetic generator for the industry-standard FHIR Observation resource
// the paper validates with (glucose measurement example): identifier,
// status, code, subject, effective, issued, performer, value,
// interpretation. Two annotated schemas are provided:
//   * observation_schema()  — the §5.1 example annotations (BIEX-2Lev,
//     Mitra, DET+OPE, RND, Paillier selection), and
//   * benchmark_schema()    — the §5.2 performance-evaluation policy whose
//     selection yields exactly the paper's 8 tactic instances: Mitra, RND,
//     Paillier and five DETs.
#pragma once

#include "common/rng.hpp"
#include "doc/value.hpp"
#include "schema/schema.hpp"

namespace datablinder::fhir {

/// Deterministic generator of realistic Observation documents.
class ObservationGenerator {
 public:
  explicit ObservationGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Fresh random observation (no id; the middleware assigns one).
  doc::Document next();

  // Random *existing-ish* query values, drawn from the same pools the
  // generator uses so searches hit real data.
  doc::Value random_status();
  doc::Value random_code();
  doc::Value random_subject();
  /// Random [lo, hi] window over the `effective` timestamp domain.
  std::pair<doc::Value, doc::Value> random_effective_range();

  DetRng& rng() { return rng_; }

 private:
  DetRng rng_;
};

/// The §5.1 annotation example (protection classes C1..C5, ops, aggregates).
schema::Schema observation_schema(const std::string& name = "observations");

/// The §5.2 benchmark policy: 8 tactics — Mitra, RND, Paillier, 5x DET.
schema::Schema benchmark_schema(const std::string& name = "observations");

}  // namespace datablinder::fhir
