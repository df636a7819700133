// RND tactic — probabilistic encryption, strongest protection (Class 1),
// equality answered by gateway-side scan-and-decrypt (Table 2: challenge
// "Inefficiency", 6 gateway / 4 cloud interfaces).
#pragma once

#include "core/spi.hpp"

namespace datablinder::core {

class RndTactic final : public FieldTactic {
 public:
  explicit RndTactic(GatewayContext ctx) : ctx_(std::move(ctx)) {}

  static const TacticDescriptor& static_descriptor();
  const TacticDescriptor& descriptor() const override { return static_descriptor(); }

  void setup() override {}
  // Nothing to index: the value is protected inside the AEAD document blob.
  void on_insert(const DocId& id, const doc::Value& value) override;
  void on_delete(const DocId& id, const doc::Value& value) override;
  /// Returns every document id (candidates); the middleware core decrypts
  /// and filters — RND's declared inefficiency.
  std::vector<DocId> equality_search(const doc::Value& value) override;

 private:
  GatewayContext ctx_;
};

}  // namespace datablinder::core
