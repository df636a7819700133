#include "core/exec/runtime.hpp"

#include <algorithm>
#include <thread>

#include "core/metrics.hpp"
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

void WritePart::run(PerfRegistry* perf) const {
  auto call = [&](TacticOperation op, const std::function<void()>& fn) {
    if (!fn) return;
    if (perf == nullptr) return fn();
    const ScopedPerf timer(*perf, descriptor->name, op);
    fn();
  };
  auto calls = [&] {
    call(TacticOperation::kDelete, on_delete);
    call(TacticOperation::kInsert, on_insert);
  };
  if (descriptor->updates_read_fixed_keys) {
    std::shared_lock lock(*mutex);
    calls();
  } else {
    std::unique_lock lock(*mutex);
    calls();
  }
}

std::vector<WritePart> CollectionRuntime::write_parts(const Document* before,
                                                      const Document* after) {
  const DocId& id = after != nullptr ? after->id : before->id;
  std::vector<WritePart> parts;
  auto add_field = [&](const std::string& field, const Value* old_value,
                       const Value* new_value) {
    auto add = [&](TacticSlot& slot) {
      FieldTactic* t = slot.tactic.get();
      WritePart& part = parts.emplace_back(WritePart{&t->descriptor(), &slot.mutex, {}, {}});
      if (old_value != nullptr) {
        part.on_delete = [t, &id, old_value] { t->on_delete(id, *old_value); };
      }
      if (new_value != nullptr) {
        part.on_insert = [t, &id, new_value] { t->on_insert(id, *new_value); };
      }
    };
    for (auto* slots : {&eq, &range, &agg}) {
      if (auto it = slots->find(field); it != slots->end()) add(it->second);
    }
    if (auto ait = range_alts.find(field); ait != range_alts.end()) {
      for (auto& [alt_name, alt_slot] : ait->second) add(alt_slot);
    }
  };
  // Fields come sorted by name, so a capture queues parts in one order: per
  // field eq, range, agg, then the alternates; an update's new-only fields
  // follow its old ones.
  auto value_in = [](const Document* d, const std::string& field) -> const Value* {
    if (d == nullptr) return nullptr;
    const auto it = d->fields.find(field);
    return it == d->fields.end() ? nullptr : &it->second;
  };
  if (before != nullptr) {
    for (const auto& [field, value] : before->fields) {
      add_field(field, &value, value_in(after, field));
    }
  }
  if (after != nullptr) {
    for (const auto& [field, value] : after->fields) {
      if (value_in(before, field) == nullptr) add_field(field, nullptr, &value);
    }
  }
  auto prior_us = [](const WritePart& part) {
    const auto& ops = part.descriptor->cost.ops;
    auto prior = [&](TacticOperation op, const std::function<void()>& fn) {
      const auto it = ops.find(op);
      return fn && it != ops.end() ? it->second.base_us : 0.0;
    };
    return prior(TacticOperation::kDelete, part.on_delete) +
           prior(TacticOperation::kInsert, part.on_insert);
  };
  std::stable_sort(parts.begin(), parts.end(), [&](const WritePart& a, const WritePart& b) {
    return prior_us(a) > prior_us(b);
  });

  if (boolean) {
    WritePart part{&boolean->descriptor(), &boolean_mutex, {}, {}};
    BooleanTactic* t = boolean.get();
    if (auto words = before ? boolean_keywords(*before) : std::vector<std::string>{};
        !words.empty()) {
      part.on_delete = [t, &id, words = std::move(words)] { t->on_delete(id, words); };
    }
    if (auto words = after ? boolean_keywords(*after) : std::vector<std::string>{};
        !words.empty()) {
      part.on_insert = [t, &id, words = std::move(words)] { t->on_insert(id, words); };
    }
    if (part.on_delete || part.on_insert) parts.push_back(std::move(part));
  }
  return parts;
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
