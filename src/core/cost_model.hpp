// CostModel — cost-ranked tactic choice among leakage-admissible
// candidates (the Enc2DB-style second half of selection).
//
// The policy engine's admissibility filter is unchanged and still runs
// first: only tactics whose declared leakage fits the field's protection
// class ever reach this model (plus the retrieve-and-post-filter plan
// shape, which leaks access structure only and is admissible everywhere).
// The model then predicts each candidate's cost at the observed collection
// cardinality by blending two signals:
//
//   * static priors — the descriptor's CostProfile (asymptotic shape +
//     calibration constants seeded from BENCH_crypto.json), so a tactic
//     that has never executed still has a defensible estimate;
//   * live evidence — the whole-plan latency EWMA the gateway records
//     under "plan.<tactic>" (PerfSeries fast-reads: no registry mutex in
//     the per-candidate loop).
//
// The blend weight grows with recent evidence (w = recent/(recent+8): the
// prior counts as eight samples), so a cold tactic is judged by its prior
// and a warm one by what actually happened. Switching away from the
// current choice requires a sustained predicted win — at least 15% cheaper
// for `hysteresis_windows` consecutive decisions — so alternating
// fast/slow windows cannot make the selection flap.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/spi.hpp"

namespace datablinder::core {

class HotCache;

/// Name of the planner's retrieve-and-post-filter pseudo-candidate: bulk
/// retrieve + gateway-side decrypt + predicate. Not a registry tactic —
/// the planner synthesizes its plan directly.
inline constexpr const char* kPostFilterTactic = "PostFilter";

/// Static prior for the post-filter shape: one doc.list round trip, then
/// every document fetched, AEAD-opened (~40us each, BENCH_crypto
/// BM_AesGcmOpen) and predicate-checked at the gateway. Linear in n and
/// indifferent to selectivity — the whole collection travels.
const CostProfile& post_filter_cost_profile();

struct CostCandidate {
  std::string name;
  const CostProfile* profile = nullptr;  // static prior; null predicts 0
};

struct CostDecision {
  std::string chosen;
  double predicted_us = 0.0;
  /// "static" (model agrees with the §5.1 table), "cost-model" (model has
  /// switched away from the static choice), or "hysteresis-hold" (a
  /// cheaper challenger exists but has not sustained its win yet).
  std::string chosen_by = "static";
};

class CostModel {
 public:
  struct Config {
    /// Consecutive decisions a challenger must win (by the 15% margin)
    /// before the model switches.
    int hysteresis_windows = 3;
    /// Assumed K/n for kLogNPlusK priors when true selectivity is unknown.
    double default_selectivity = 0.1;
  };

  CostModel(PerfRegistry& perf, Config config, const HotCache* cache = nullptr);
  explicit CostModel(PerfRegistry& perf) : CostModel(perf, Config(), nullptr) {}

  /// Blended cost prediction for one candidate at cardinality n.
  double predict_us(const CostCandidate& candidate, TacticOperation op,
                    std::uint64_t n);

  /// Ranks `candidates` and applies hysteresis against the per-key
  /// incumbent (seeded with `static_choice` on first sight). Thread-safe.
  CostDecision choose(const std::string& decision_key,
                      const std::string& static_choice,
                      const std::vector<CostCandidate>& candidates,
                      TacticOperation op, std::uint64_t n);

  /// PerfRegistry series name for whole-plan latencies of one candidate —
  /// distinct from the tactic's own index-step series, because a plan's
  /// cost includes retrieval and gateway-side resolution.
  static std::string plan_series(const std::string& tactic) {
    return "plan." + tactic;
  }

  const Config& config() const noexcept { return config_; }

 private:
  const PerfSeries* observed(const std::string& name, TacticOperation op);

  PerfRegistry& perf_;
  Config config_;
  const HotCache* cache_;  // optional: hit ratio discounts post-filter cost

  std::mutex mutex_;  // guards handles_ and state_
  std::map<std::pair<std::string, TacticOperation>, const PerfSeries*> handles_;
  struct State {
    std::string incumbent;
    std::string challenger;
    int streak = 0;
  };
  std::map<std::string, State> state_;
};

}  // namespace datablinder::core
