// PolicyEngine — adaptive selection of data protection tactics (§3.2, §5.1).
//
// Given a field's annotation (minimum protection class + required
// operations/aggregates) and the registry of available tactics, the engine
// picks, per operation, the *least protective tactic that still satisfies
// the class bound* — leakier schemes are cheaper, and the annotation is an
// upper bound on acceptable leakage. Ties break on registered preference.
// The effective protection of a field is the weakest class among all
// tactics applied to it (weakest-link rule).
//
// The engine reproduces the §5.1 selection table exactly: e.g. a C5 field
// with [I, EQ, BL, RG] resolves to DET + OPE, a C3 field with [I, EQ, BL]
// folds its equality into BIEX-2Lev, a C2 [I, EQ] field gets Mitra, and a
// C1 insert-only field gets RND.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "schema/schema.hpp"

namespace datablinder::core {

/// Per-field outcome of tactic selection.
struct FieldPlan {
  /// Tactic serving equality search; empty when equality is folded into
  /// the collection's boolean tactic.
  std::string eq_tactic;
  std::string range_tactic;
  std::string agg_tactic;      // sum / average / count
  bool boolean_member = false; // participates in the collection boolean index
  bool minmax_via_range = false;

  /// All distinct tactics applied to this field (selection table column 2).
  std::vector<std::string> tactics;
  /// Weakest-link effective class.
  schema::ProtectionClass effective = schema::ProtectionClass::kClass1;
  /// Human-readable rationale (selection table column 3).
  std::string reason;

  /// Every admissible range tactic, static choice first, then descending
  /// (class, preference) — the candidate set the adaptive cost model
  /// re-ranks per query. Populated whenever range_tactic is; with
  /// adaptation off only the first entry is ever instantiated.
  std::vector<std::string> range_candidates;

  // --- live annotation (selection table column 4) --------------------------
  // Written by adaptive range selection under the runtime's plan mutex; stays
  // at the defaults when adaptation is off.
  std::string range_last_choice;             // empty until adaptively planned
  std::string range_chosen_by = "static";    // CostDecision::chosen_by
  double range_predicted_us = 0.0;
};

struct CollectionPlan {
  std::string schema_name;
  /// Collection-scoped boolean tactic (BIEX family), empty if unused.
  std::string boolean_tactic;
  std::map<std::string, FieldPlan> fields;

  /// Renders the §5.1-style selection table.
  std::string to_table() const;
};

class PolicyEngine {
 public:
  explicit PolicyEngine(const TacticRegistry& registry) : registry_(registry) {}

  /// Resolves a schema to a plan. Throws Error(kPolicyViolation) when a
  /// requested operation has no tactic within the class bound.
  CollectionPlan select(const schema::Schema& s) const;

 private:
  /// Best tactic among `candidates` with class <= bound; empty if none.
  std::string best_within(const std::vector<std::string>& candidates,
                          schema::ProtectionClass bound) const;

  /// Registered tactics serving `op`, optionally restricted to
  /// field-scoped or collection-scoped entries.
  std::vector<std::string> serving(schema::Operation op) const;
  std::vector<std::string> serving(schema::Aggregate agg) const;

  const TacticRegistry& registry_;
};

}  // namespace datablinder::core
