// Mitra-Stateless tactic — equality search with a fully stateless gateway
// (this library's implementation of the paper's concluding future-work
// direction: stateless SE for cloud-native deployment).
//
// Compared to Mitra (Table 2 row 2): same Class 2 / identifiers query
// leakage and same search protocol, but the keyword counter is outsourced
// encrypted to the cloud, so
//   + any gateway replica can serve any request with zero local state and
//     zero state synchronization (no "Local storage" challenge),
//   - every update and search pays one extra round trip to fetch the
//     counter slot, and
//   - the fixed counter-slot label leaks which updates concern the same
//     keyword (update-pattern keyword equality), a leakage plain Mitra's
//     forward privacy avoids.
//
// Not registered by default: register_mitra_stateless_tactic() adds it,
// and the crypto-agility machinery (preference ranking) selects it — see
// tests/stateless_test.cpp and bench_ablation_stateless.
#pragma once

#include <optional>

#include "core/registry.hpp"
#include "core/spi.hpp"
#include "sse/mitra_stateless.hpp"

namespace datablinder::core {

class MitraStatelessTactic final : public FieldTactic {
 public:
  explicit MitraStatelessTactic(GatewayContext ctx) : ctx_(std::move(ctx)) {}

  static const TacticDescriptor& static_descriptor();
  const TacticDescriptor& descriptor() const override { return static_descriptor(); }

  void setup() override;
  void on_insert(const DocId& id, const doc::Value& value) override;
  void on_delete(const DocId& id, const doc::Value& value) override;
  std::vector<DocId> equality_search(const doc::Value& value) override;

 private:
  /// Round 1 of both protocols: fetch and decrypt the keyword's counter.
  std::uint64_t fetch_counter(const std::string& keyword) const;
  void send_update(sse::UpdateOp op, const std::string& keyword, const DocId& id);

  GatewayContext ctx_;
  std::optional<sse::MitraStatelessClient> client_;
};

void register_mitra_stateless_tactic(TacticRegistry& r);

}  // namespace datablinder::core
