// Mitra tactic — forward-private equality search (Table 2: Class 2,
// identifiers leakage, 7 gateway / 5 cloud interfaces, challenge = local
// storage: the per-keyword counters persist in the gateway's KvStore).
#pragma once

#include <optional>

#include "core/spi.hpp"
#include "sse/mitra.hpp"

namespace datablinder::core {

class MitraTactic final : public FieldTactic {
 public:
  explicit MitraTactic(GatewayContext ctx) : ctx_(std::move(ctx)) {}

  static const TacticDescriptor& static_descriptor();
  const TacticDescriptor& descriptor() const override { return static_descriptor(); }

  void setup() override;
  void on_insert(const DocId& id, const doc::Value& value) override;
  void on_delete(const DocId& id, const doc::Value& value) override;
  std::vector<DocId> equality_search(const doc::Value& value) override;

 private:
  void send_update(sse::UpdateOp op, const std::string& keyword, const DocId& id);

  GatewayContext ctx_;
  std::optional<sse::MitraClient> client_;
  std::string state_key_;  // gateway KvStore hash holding keyword counters
};

}  // namespace datablinder::core
