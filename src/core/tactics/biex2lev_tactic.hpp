// BIEX-2Lev tactic — boolean & cross-field search via IEX-2Lev (Table 2:
// Class 3, predicates leakage, 8 gateway / 5 cloud interfaces, challenge =
// storage implementation complexity). Collection-scoped: all boolean-
// annotated fields of a collection share one cross-keyword index.
#pragma once

#include <optional>

#include "core/spi.hpp"
#include "sse/iex2lev.hpp"

namespace datablinder::core {

class Biex2LevTactic final : public BooleanTactic {
 public:
  explicit Biex2LevTactic(GatewayContext ctx) : ctx_(std::move(ctx)) {}

  static const TacticDescriptor& static_descriptor();
  const TacticDescriptor& descriptor() const override { return static_descriptor(); }

  void setup() override;
  void on_insert(const DocId& id, const std::vector<std::string>& keywords) override;
  void on_delete(const DocId& id, const std::vector<std::string>& keywords) override;
  std::vector<DocId> query(const std::vector<std::string>& conj) override;

 private:
  void send_tokens(sse::UpdateOp op, const std::vector<std::string>& keywords,
                   const DocId& id);

  GatewayContext ctx_;
  std::optional<sse::Iex2LevClient> client_;
};

}  // namespace datablinder::core
