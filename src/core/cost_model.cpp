#include "core/cost_model.hpp"

#include <algorithm>
#include <limits>

#include "core/hot_cache.hpp"

namespace datablinder::core {

namespace {

/// A challenger must predict at least this fraction cheaper to win.
constexpr double kHysteresisMargin = 0.15;
/// Pseudo-sample count backing the static prior in the blend.
constexpr double kPriorWeight = 8.0;

}  // namespace

const CostProfile& post_filter_cost_profile() {
  static const CostProfile p = [] {
    CostProfile c;
    // base: doc.list round trip + plan overhead; per_unit: one mget share
    // (~2us) + AES-GCM open and decode (~4us, perfbench
    // crypto.resolve_us_per_doc; BM_AesGcmOpen/256 ≈ 0.3us) + predicate
    // per document in the collection.
    c.ops[TacticOperation::kRangeQuery] = {CostShape::kLinear, 120.0, 8.0};
    return c;
  }();
  return p;
}

CostModel::CostModel(PerfRegistry& perf, Config config, const HotCache* cache)
    : perf_(perf), config_(config), cache_(cache) {}

const PerfSeries* CostModel::observed(const std::string& name, TacticOperation op) {
  std::lock_guard lock(mutex_);
  auto& slot = handles_[{name, op}];
  if (slot == nullptr) slot = perf_.handle(name, op);
  return slot;
}

double CostModel::predict_us(const CostCandidate& candidate, TacticOperation op,
                             std::uint64_t n) {
  double prior = candidate.profile == nullptr
                     ? 0.0
                     : candidate.profile->predict_us(op, n, config_.default_selectivity);
  // Cache feedback: when the decrypted-document cache is running hot, the
  // dominant per-document cost of the post-filter shape (fetch + AEAD
  // open) is mostly skipped — discount the prior accordingly. Live EWMA
  // evidence already embodies the effect, so only the prior is scaled.
  if (cache_ != nullptr && candidate.name == kPostFilterTactic) {
    prior *= 1.0 - 0.7 * cache_->hit_ratio();
  }
  const PerfSeries* series = observed(plan_series(candidate.name), op);
  const double recent = static_cast<double>(series->recent_count());
  if (recent == 0.0) return prior;
  const double w = recent / (recent + kPriorWeight);
  return w * series->ewma_us() + (1.0 - w) * prior;
}

CostDecision CostModel::choose(const std::string& decision_key,
                               const std::string& static_choice,
                               const std::vector<CostCandidate>& candidates,
                               TacticOperation op, std::uint64_t n) {
  CostDecision out;
  out.chosen = static_choice;
  if (candidates.empty()) return out;

  std::string best;
  double best_us = std::numeric_limits<double>::infinity();
  std::map<std::string, double> predicted;
  for (const CostCandidate& c : candidates) {
    const double us = predict_us(c, op, n);
    predicted[c.name] = us;
    if (us < best_us) {
      best = c.name;
      best_us = us;
    }
  }

  std::lock_guard lock(mutex_);
  State& st = state_[decision_key];
  if (st.incumbent.empty() || !predicted.count(st.incumbent)) {
    st.incumbent = predicted.count(static_choice) ? static_choice : best;
    st.challenger.clear();
    st.streak = 0;
  }

  if (best == st.incumbent) {
    // Incumbent still (predicted) cheapest: any pending challenge dies.
    st.challenger.clear();
    st.streak = 0;
  } else if (best_us < predicted[st.incumbent] * (1.0 - kHysteresisMargin)) {
    // Sustained-win accounting: the streak survives only while the SAME
    // challenger keeps beating the incumbent by the margin.
    st.streak = (st.challenger == best) ? st.streak + 1 : 1;
    st.challenger = best;
    if (st.streak >= config_.hysteresis_windows) {
      st.incumbent = best;
      st.challenger.clear();
      st.streak = 0;
    }
  } else {
    // Cheaper, but not by enough to count as a win.
    st.challenger.clear();
    st.streak = 0;
  }

  out.chosen = st.incumbent;
  out.predicted_us = predicted[st.incumbent];
  if (st.incumbent != static_choice) {
    out.chosen_by = "cost-model";
  } else if (!st.challenger.empty()) {
    out.chosen_by = "hysteresis-hold";
  } else {
    out.chosen_by = "static";
  }
  return out;
}

}  // namespace datablinder::core
