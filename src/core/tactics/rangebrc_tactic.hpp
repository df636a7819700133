// RangeBRC tactic — range queries WITHOUT order leakage (Class 3).
//
// Fills the policy gap between the paper's Table 2 range tactics (OPE/ORE,
// both Class 5 "order") and fields whose annotation forbids order leakage:
// a C3 field annotated with RG now resolves to this tactic instead of
// failing. Construction: dyadic-interval SSE with best-range-cover queries
// (the "rich queries" line of work the paper cites as [22]), riding on the
// Mitra encrypted index — so updates are forward-private and the cloud
// handlers are the existing mitra.* methods under a dedicated scope.
//
// Trade-off vs OPE (measured by bench_ablation_ranges): 64 index entries
// per value and O(log D) interval searches per query, against OPE's single
// ordered-index entry and one scan — protection bought with storage and
// round trips, exactly the knob the protection-class annotation turns.
// Like Mitra, the tactic is stateful: dyadic counters live at the gateway
// (persisted in the local KvStore). OPE stays the stateless option; a
// RangeBRC-over-Mitra-SL composition would trade further round trips for
// statelessness.
#pragma once

#include <optional>

#include "core/registry.hpp"
#include "core/spi.hpp"
#include "sse/range_brc.hpp"

namespace datablinder::core {

class RangeBrcTactic final : public FieldTactic {
 public:
  explicit RangeBrcTactic(GatewayContext ctx) : ctx_(std::move(ctx)) {}

  static const TacticDescriptor& static_descriptor();
  const TacticDescriptor& descriptor() const override { return static_descriptor(); }

  void setup() override;
  void on_insert(const DocId& id, const doc::Value& value) override;
  void on_delete(const DocId& id, const doc::Value& value) override;
  std::vector<DocId> range_search(const doc::Value& lo, const doc::Value& hi) override;

 private:
  void send_updates(sse::UpdateOp op, const doc::Value& value, const DocId& id);

  GatewayContext ctx_;
  std::optional<sse::RangeBrcClient> client_;
  std::string state_key_;
};

void register_rangebrc_tactic(TacticRegistry& r);

}  // namespace datablinder::core
