#include "core/exec/runtime.hpp"

#include <algorithm>
#include <thread>

#include "core/wire.hpp"
#include "doc/binary_codec.hpp"
#include "store/docstore.hpp"  // compare_values

namespace datablinder::core::exec {

using doc::Document;
using doc::Value;

std::size_t default_workers() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 2 : hw / 2, 2, 4);
}

Bytes CollectionRuntime::seal_document(const Document& d) const {
  return doc_cipher->seal_random_nonce(doc::encode_document(d), to_bytes(d.id));
}

Document CollectionRuntime::open_document(const DocId& id, BytesView blob) const {
  auto plain = doc_cipher->open_with_nonce(blob, to_bytes(id));
  if (!plain) {
    throw_error(ErrorCode::kCryptoFailure,
                "document blob failed authentication for id " + id);
  }
  return doc::decode_document(*plain);
}

std::vector<std::string> CollectionRuntime::boolean_keywords(const Document& d) const {
  std::vector<std::string> keywords;
  for (const auto& [field, fp] : plan.fields) {
    if (fp.boolean_member && d.has(field)) {
      keywords.push_back(field_keyword(field, d.at(field)));
    }
  }
  return keywords;
}

std::vector<IndexStep> CollectionRuntime::index_steps(const Document& d,
                                                      TacticOperation op) {
  // Fields come sorted by name, so a deferred section queues steps in one
  // order: per field eq, range, agg, then the alternates.
  std::vector<IndexStep> steps;
  for (const auto& [field, value] : d.fields) {
    for (auto* slots : {&eq, &range, &agg}) {
      if (auto it = slots->find(field); it != slots->end()) {
        steps.push_back({&value, &it->second});
      }
    }
    if (auto ait = range_alts.find(field); ait != range_alts.end()) {
      for (auto& [alt_name, alt_slot] : ait->second) steps.push_back({&value, &alt_slot});
    }
  }
  auto prior_us = [op](const TacticSlot* slot) {
    const auto& ops = slot->tactic->descriptor().cost.ops;
    const auto it = ops.find(op);
    return it == ops.end() ? 0.0 : it->second.base_us;
  };
  std::stable_sort(steps.begin(), steps.end(), [&](const IndexStep& a, const IndexStep& b) {
    return prior_us(a.slot) > prior_us(b.slot);
  });
  return steps;
}

void CollectionRuntime::store(net::RpcClient& cloud, const Document& d) const {
  cloud.call("doc.put", wire::pack({{"col", Value(schema.name())},
                                    {"id", Value(d.id)},
                                    {"blob", Value(seal_document(d))}}));
}

std::vector<Document> CollectionRuntime::resolve(net::RpcClient& cloud,
                                                 const std::vector<DocId>& ids) const {
  std::vector<Document> out;
  if (ids.empty()) return out;

  // The cloud returns only the ids that still exist, in request order, so
  // one cursor walks the candidates alongside the reply: a candidate that
  // is not the next entry's id vanished concurrently and is skipped. Each
  // blob is opened from its view into the reply.
  out.reserve(ids.size());
  const Bytes reply = cloud.call("doc.mget", wire::pack_mget(schema.name(), ids));
  std::size_t next = 0;
  wire::for_each_doc(reply, [&](std::string_view id, BytesView blob) {
    while (next < ids.size() && ids[next] != id) ++next;
    if (next == ids.size()) return;  // an entry no candidate asked for
    out.push_back(open_document(ids[next++], blob));
  });
  return out;
}

bool term_matches(const Document& d, const std::string& field, const Value& value) {
  if (!d.has(field)) return false;
  try {
    return store::compare_values(d.at(field), value) == 0;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace datablinder::core::exec
