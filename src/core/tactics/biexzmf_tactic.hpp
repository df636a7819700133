// BIEX-ZMF tactic — boolean search via matryoshka (Bloom) filters (Table 2:
// Class 3, predicates leakage, 8 gateway / 5 cloud interfaces). Space-
// efficient counterpart to BIEX-2Lev: no quadratic pair index, at the cost
// of candidate false positives that the middleware core re-verifies after
// decryption.
#pragma once

#include <optional>

#include "core/spi.hpp"
#include "sse/iexzmf.hpp"

namespace datablinder::core {

class BiexZmfTactic final : public BooleanTactic {
 public:
  explicit BiexZmfTactic(GatewayContext ctx) : ctx_(std::move(ctx)) {}

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
  std::optional<sse::IexZmfClient> client_;
};

}  // namespace datablinder::core
