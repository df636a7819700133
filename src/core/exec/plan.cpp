#include "core/exec/plan.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/cost_model.hpp"
#include "core/hot_cache.hpp"
#include "core/wire.hpp"
#include "doc/binary_codec.hpp"
#include "store/docstore.hpp"  // compare_values for post-verification

namespace datablinder::core::exec {

using doc::Document;
using doc::Value;

namespace {

bool term_matches(const Document& d, const std::string& field, const Value& value) {
  if (!d.has(field)) return false;
  try {
    return store::compare_values(d.at(field), value) == 0;
  } catch (const Error&) {
    return false;
  }
}

bool in_range(const Document& d, const std::string& field, const Value& lo,
              const Value& hi) {
  if (!d.has(field)) return false;
  try {
    return store::compare_values(d.at(field), lo) >= 0 &&
           store::compare_values(d.at(field), hi) <= 0;
  } catch (const Error&) {
    return false;
  }
}

TacticOperation op_of(schema::Aggregate a) {
  switch (a) {
    case schema::Aggregate::kSum: return TacticOperation::kSum;
    case schema::Aggregate::kAverage: return TacticOperation::kAverage;
    case schema::Aggregate::kCount: return TacticOperation::kCount;
    case schema::Aggregate::kMin: return TacticOperation::kMin;
    case schema::Aggregate::kMax: return TacticOperation::kMax;
  }
  return TacticOperation::kSum;
}

}  // namespace

std::vector<Document> Planner::fetch_documents(const CollectionRuntime& rt,
                                               const std::vector<DocId>& ids) const {
  std::vector<Document> out;
  if (ids.empty()) return out;

  // Hot-path cache: repeated retrievals of the same candidate hit the
  // decrypted-document cache instead of paying a round trip + AEAD open.
  // Entries live in the collection's epoch domain — any remove/update
  // bumps the epoch and drops the whole collection's cached documents.
  std::unordered_map<DocId, Document> ready;
  std::vector<DocId> missing;
  if (cache_ != nullptr) {
    for (const auto& id : ids) {
      if (ready.count(id)) continue;
      if (auto blob = cache_->get("doc/" + rt.schema.name() + "/" + id)) {
        ready.emplace(id, doc::decode_document(*blob));
      } else {
        missing.push_back(id);
      }
    }
  } else {
    missing = ids;
  }

  if (!missing.empty()) {
    doc::Array arr;
    arr.reserve(missing.size());
    for (const auto& id : missing) arr.emplace_back(id);
    const Bytes reply = cloud_.call(
        "doc.mget",
        wire::pack({{"col", Value(rt.schema.name())}, {"ids", Value(std::move(arr))}}));
    const doc::Object resp = wire::unpack(reply);
    const doc::Array& found = wire::get_arr(resp, "docs");
    // The cloud returns only the ids that still exist, in request order —
    // index entries pointing at concurrently removed documents are skipped.
    for (const auto& entry : found) {
      const doc::Object& e = entry.as_object();
      Document d = rt.open_document(wire::get_str(e, "id"), wire::get_bin(e, "blob"));
      if (cache_ != nullptr) {
        cache_->put("doc/" + rt.schema.name() + "/" + d.id, doc::encode_document(d),
                    rt.schema.name());
      }
      ready.emplace(d.id, std::move(d));
    }
  }

  // Emit in id order; ids absent from `ready` vanished concurrently.
  out.reserve(ids.size());
  for (const auto& id : ids) {
    if (auto it = ready.find(id); it != ready.end()) out.push_back(it->second);
  }
  return out;
}

void Planner::append_resolve_stage(OperationPlan& p, const CollectionRuntime& rt,
                                   std::shared_ptr<QueryScratch> scratch,
                                   std::function<std::vector<DocId>()> candidates,
                                   const char* label) const {
  const CollectionRuntime* rtp = &rt;
  p.stages.push_back(
      {"resolve",
       {{label, nullptr, false, [this, rtp, scratch, candidates = std::move(candidates)] {
           scratch->docs = fetch_documents(*rtp, candidates());
         }}}});
}

PlanStage Planner::update_stage(CollectionRuntime& rt, std::shared_ptr<DocHolder> holder,
                                bool is_insert) const {
  PlanStage stage{is_insert ? "index" : "unindex", {}};
  const TacticOperation op =
      is_insert ? TacticOperation::kInsert : TacticOperation::kDelete;
  // Insert plans know the document at plan time: prune steps (and their
  // lock acquisitions) for fields the document does not carry, so writers
  // touching disjoint fields never contend. Remove plans learn the
  // document only in their retrieve stage, so they keep every step and
  // rely on the run-time has() check.
  const Document* known = is_insert ? holder->doc : nullptr;
  for (const auto& [field, fp] : rt.plan.fields) {
    if (known && !known->has(field)) continue;
    auto add_slot = [&, this](TacticSlot* slot, const char* kind) {
      const std::string f = field;
      stage.steps.push_back(
          {std::string(kind) + ":" + slot->tactic->descriptor().name + ":" + f,
           &slot->mutex, /*exclusive=*/true,
           [this, slot, f, holder, is_insert, op] {
             const Document& d = *holder->doc;
             if (!d.has(f)) return;
             const ScopedPerf perf(perf_, slot->tactic->descriptor().name, op);
             if (is_insert) {
               slot->tactic->on_insert(d.id, d.at(f));
             } else {
               slot->tactic->on_delete(d.id, d.at(f));
             }
           }});
    };
    auto add = [&](std::map<std::string, TacticSlot>& slots, const char* kind) {
      auto it = slots.find(field);
      if (it != slots.end()) add_slot(&it->second, kind);
    };
    add(rt.eq, "eq");
    add(rt.range, "range");
    add(rt.agg, "agg");
    // Adaptive alternates keep their indexes current too — the cost model
    // may route the next query through any of them without a rebuild, and
    // removals must clean every index that saw the insert.
    if (auto ait = rt.range_alts.find(field); ait != rt.range_alts.end()) {
      for (auto& [alt_name, alt_slot] : ait->second) add_slot(&alt_slot, "range-alt");
    }
  }
  if (rt.boolean && !(known && rt.boolean_keywords(*known).empty())) {
    CollectionRuntime* rtp = &rt;
    stage.steps.push_back(
        {"bool:" + rt.boolean->descriptor().name, &rt.boolean_mutex, /*exclusive=*/true,
         [this, rtp, holder, is_insert, op] {
           const auto keywords = rtp->boolean_keywords(*holder->doc);
           if (keywords.empty()) return;
           const ScopedPerf perf(perf_, rtp->boolean->descriptor().name, op);
           if (is_insert) {
             rtp->boolean->on_insert(holder->doc->id, keywords);
           } else {
             rtp->boolean->on_delete(holder->doc->id, keywords);
           }
         }});
  }
  return stage;
}

OperationPlan Planner::insert(CollectionRuntime& rt, const Document& d) const {
  OperationPlan p;
  p.collection = rt.schema.name();
  p.op = TacticOperation::kInsert;
  p.inline_only = cloud_.in_deferred_section();

  auto holder = std::make_shared<DocHolder>();
  holder->doc = &d;

  CollectionRuntime* rtp = &rt;
  p.stages.push_back({"store",
                      {{"doc.put", nullptr, false, [this, rtp, &d] {
                          cloud_.call("doc.put",
                                      wire::pack({{"col", Value(rtp->schema.name())},
                                                  {"id", Value(d.id)},
                                                  {"blob", Value(rtp->seal_document(d))}}));
                        }}}});
  p.stages.push_back(update_stage(rt, std::move(holder), /*is_insert=*/true));
  return p;
}

OperationPlan Planner::remove(CollectionRuntime& rt, const DocId& id) const {
  OperationPlan p;
  p.collection = rt.schema.name();
  p.op = TacticOperation::kDelete;
  p.inline_only = cloud_.in_deferred_section();

  auto holder = std::make_shared<DocHolder>();
  CollectionRuntime* rtp = &rt;
  // Retrieval first: index removal needs the field values.
  p.stages.push_back(
      {"retrieve", {{"doc.get", nullptr, false, [this, rtp, holder, id] {
                       const Bytes reply = cloud_.call(
                           "doc.get", wire::pack({{"col", Value(rtp->schema.name())},
                                                  {"id", Value(id)}}));
                       holder->owned = rtp->open_document(
                           id, wire::get_bin(wire::unpack(reply), "blob"));
                       holder->doc = &holder->owned;
                     }}}});
  p.stages.push_back(update_stage(rt, holder, /*is_insert=*/false));
  p.stages.push_back({"delete", {{"doc.del", nullptr, false, [this, rtp, id] {
                                    cloud_.call("doc.del",
                                                wire::pack({{"col", Value(rtp->schema.name())},
                                                            {"id", Value(id)}}));
                                  }}}});
  return p;
}

OperationPlan Planner::read(CollectionRuntime& rt, const DocId& id) const {
  OperationPlan p;
  p.collection = rt.schema.name();
  p.op = TacticOperation::kRead;
  p.inline_only = cloud_.in_deferred_section();
  p.scratch = std::make_shared<QueryScratch>();

  auto scratch = p.scratch;
  CollectionRuntime* rtp = &rt;
  p.stages.push_back(
      {"retrieve", {{"doc.get", nullptr, false, [this, rtp, scratch, id] {
                       const Bytes reply = cloud_.call(
                           "doc.get", wire::pack({{"col", Value(rtp->schema.name())},
                                                  {"id", Value(id)}}));
                       scratch->docs.push_back(rtp->open_document(
                           id, wire::get_bin(wire::unpack(reply), "blob")));
                     }}}});
  return p;
}

OperationPlan Planner::equality_search(CollectionRuntime& rt, const std::string& field,
                                       const Value& value) const {
  const auto fit = rt.plan.fields.find(field);
  if (fit == rt.plan.fields.end()) {
    throw_error(ErrorCode::kPolicyViolation,
                "equality_search: field '" + field + "' is not protected/searchable");
  }
  const FieldPlan& fp = fit->second;

  OperationPlan p;
  p.collection = rt.schema.name();
  p.op = TacticOperation::kEqualitySearch;
  p.inline_only = cloud_.in_deferred_section();
  p.scratch = std::make_shared<QueryScratch>();
  p.scratch->id_slots.resize(1);
  auto scratch = p.scratch;

  PlanStage query{"index", {}};
  if (auto it = rt.eq.find(field); it != rt.eq.end()) {
    TacticSlot* slot = &it->second;
    query.steps.push_back(
        {"eq:" + slot->tactic->descriptor().name + ":" + field, &slot->mutex,
         /*exclusive=*/false, [this, slot, scratch, &value] {
           const ScopedPerf perf(perf_, slot->tactic->descriptor().name,
                                 TacticOperation::kEqualitySearch);
           scratch->id_slots[0] = slot->tactic->equality_search(value);
           scratch->approximate = slot->tactic->approximate();
         }});
  } else if (fp.boolean_member && rt.boolean) {
    // Equality folded into the boolean tactic: single-term conjunction.
    CollectionRuntime* rtp = &rt;
    const std::string kw = field_keyword(field, value);
    query.steps.push_back(
        {"bool-eq:" + rt.boolean->descriptor().name, &rt.boolean_mutex,
         /*exclusive=*/false, [this, rtp, scratch, kw] {
           const ScopedPerf perf(perf_, rtp->boolean->descriptor().name,
                                 TacticOperation::kEqualitySearch);
           sse::BoolQuery q;
           q.dnf.push_back({kw});
           scratch->id_slots[0] = rtp->boolean->query(q);
           scratch->approximate = rtp->boolean->approximate();
         }});
  } else {
    throw_error(ErrorCode::kPolicyViolation,
                "equality_search: field '" + field + "' has no equality tactic (op EQ "
                "not annotated?)");
  }
  p.stages.push_back(std::move(query));

  append_resolve_stage(p, rt, scratch,
                       [scratch] { return scratch->id_slots[0]; }, "doc.mget");

  // EqResolution: exact post-filtering after decryption. Unconditional —
  // required for approximate tactics, and under per-tactic locking it also
  // shields exact tactics from candidates replaced by a concurrent update
  // between index query and retrieval.
  const std::string f = field;
  p.stages.push_back({"verify", {{"eq-resolution", nullptr, false, [scratch, f, &value] {
                                    std::erase_if(scratch->docs, [&](const Document& d) {
                                      return !term_matches(d, f, value);
                                    });
                                  }}}});
  return p;
}

OperationPlan Planner::boolean_search(CollectionRuntime& rt,
                                      const FieldBoolQuery& query) const {
  require(!query.dnf.empty(), "boolean_search: empty query");

  // Plan time: split every conjunction — terms on boolean-member fields go
  // to the collection's boolean tactic as one sub-conjunction; the rest
  // resolve through their per-field equality tactics and intersect at the
  // gateway (BoolResolution).
  struct ConjRoute {
    std::vector<std::string> sse_terms;
    std::vector<const FieldTerm*> eq_terms;
  };
  std::vector<ConjRoute> routes;
  routes.reserve(query.dnf.size());
  for (const auto& conj : query.dnf) {
    require(!conj.empty(), "boolean_search: empty conjunction");
    ConjRoute route;
    for (const auto& term : conj) {
      const auto fit = rt.plan.fields.find(term.field);
      if (fit == rt.plan.fields.end()) {
        throw_error(ErrorCode::kPolicyViolation,
                    "boolean_search: field '" + term.field + "' is not searchable");
      }
      if (fit->second.boolean_member && rt.boolean) {
        route.sse_terms.push_back(field_keyword(term.field, term.value));
      } else if (rt.eq.count(term.field)) {
        route.eq_terms.push_back(&term);
      } else {
        throw_error(ErrorCode::kPolicyViolation,
                    "boolean_search: field '" + term.field +
                        "' supports neither boolean nor equality search");
      }
    }
    routes.push_back(std::move(route));
  }

  OperationPlan p;
  p.collection = rt.schema.name();
  p.op = TacticOperation::kBooleanSearch;
  p.inline_only = cloud_.in_deferred_section();
  p.scratch = std::make_shared<QueryScratch>();
  p.scratch->id_slots.resize(routes.size());
  auto scratch = p.scratch;
  CollectionRuntime* rtp = &rt;

  // One step per disjunct: conjunctions are independent, so they fan out.
  // Each step locks its tactics one at a time (shared), never holding two
  // locks together.
  PlanStage query_stage{"index", {}};
  for (std::size_t i = 0; i < routes.size(); ++i) {
    query_stage.steps.push_back(
        {"conj#" + std::to_string(i), nullptr, false,
         [this, rtp, scratch, i, route = routes[i]] {
           std::optional<std::vector<DocId>> ids;
           if (!route.sse_terms.empty()) {
             std::shared_lock lock(rtp->boolean_mutex);
             const ScopedPerf perf(perf_, rtp->boolean->descriptor().name,
                                   TacticOperation::kBooleanSearch);
             sse::BoolQuery q;
             q.dnf.push_back(route.sse_terms);
             ids = rtp->boolean->query(q);
           }
           for (const FieldTerm* term : route.eq_terms) {
             TacticSlot& slot = rtp->eq.at(term->field);
             std::shared_lock lock(slot.mutex);
             const ScopedPerf perf(perf_, slot.tactic->descriptor().name,
                                   TacticOperation::kEqualitySearch);
             auto term_ids = slot.tactic->equality_search(term->value);
             if (!ids) {
               ids = std::move(term_ids);
             } else {
               const std::unordered_set<DocId> keep(term_ids.begin(), term_ids.end());
               std::erase_if(*ids, [&](const DocId& id) { return !keep.count(id); });
             }
           }
           scratch->id_slots[i] = std::move(*ids);
         }});
  }
  p.stages.push_back(std::move(query_stage));

  // Merge the per-disjunct candidate sets in disjunct order (stable dedup,
  // matching sequential evaluation), then resolve in one round trip.
  append_resolve_stage(p, rt, scratch,
                       [scratch] {
                         std::vector<DocId> result_ids;
                         std::unordered_set<DocId> seen;
                         for (auto& slot_ids : scratch->id_slots) {
                           for (const auto& id : slot_ids) {
                             if (seen.insert(id).second) result_ids.push_back(id);
                           }
                         }
                         return result_ids;
                       },
                       "merge+doc.mget");

  // BoolResolution: decrypt candidates and re-evaluate the DNF exactly —
  // needed for ZMF false positives and RND full scans, and harmless
  // otherwise.
  const FieldBoolQuery* qp = &query;
  p.stages.push_back(
      {"verify", {{"bool-resolution", nullptr, false, [scratch, qp] {
                     std::erase_if(scratch->docs, [&](const Document& d) {
                       for (const auto& conj : qp->dnf) {
                         const bool all = std::all_of(
                             conj.begin(), conj.end(), [&](const FieldTerm& t) {
                               return term_matches(d, t.field, t.value);
                             });
                         if (all) return false;  // matches this disjunct: keep
                       }
                       return true;
                     });
                   }}}});
  return p;
}

OperationPlan Planner::range_search(CollectionRuntime& rt, const std::string& field,
                                    const Value& lo, const Value& hi) const {
  auto it = rt.range.find(field);
  if (it == rt.range.end()) {
    throw_error(ErrorCode::kPolicyViolation,
                "range_search: field '" + field + "' has no range tactic (op RG "
                "not annotated?)");
  }
  TacticSlot* slot = &it->second;

  OperationPlan p;
  p.collection = rt.schema.name();
  p.op = TacticOperation::kRangeQuery;
  p.inline_only = cloud_.in_deferred_section();
  p.scratch = std::make_shared<QueryScratch>();
  p.scratch->id_slots.resize(1);
  auto scratch = p.scratch;

  // Adaptive re-planning: rank the leakage-admissible candidates — the
  // static choice, its instantiated alternates, and the
  // retrieve-and-post-filter shape (leaks structure only, so admissible at
  // every class) — by predicted cost at the observed cardinality.
  bool post_filter = false;
  if (cost_model_ != nullptr) {
    const std::string static_name = slot->tactic->descriptor().name;
    std::vector<CostCandidate> cands;
    cands.push_back({static_name, &slot->tactic->descriptor().cost});
    auto ait = rt.range_alts.find(field);
    if (ait != rt.range_alts.end()) {
      for (const auto& [alt_name, alt_slot] : ait->second) {
        cands.push_back({alt_name, &alt_slot.tactic->descriptor().cost});
      }
    }
    cands.push_back({kPostFilterTactic, &post_filter_cost_profile()});

    const CostDecision dec = cost_model_->choose(
        rt.schema.name() + "/" + field + "/range", static_name, cands,
        TacticOperation::kRangeQuery, rt.doc_count.load(std::memory_order_relaxed));
    if (dec.chosen == kPostFilterTactic) {
      post_filter = true;
    } else if (dec.chosen != static_name) {
      slot = &ait->second.at(dec.chosen);
    }
    p.cost_series = CostModel::plan_series(dec.chosen);

    std::lock_guard<std::mutex> lock(rt.plan_mutex);
    FieldPlan& fp = rt.plan.fields.at(field);
    fp.range_last_choice = dec.chosen;
    fp.range_chosen_by = dec.chosen_by;
    fp.range_predicted_us = dec.predicted_us;
  }

  if (post_filter) {
    // Post-filter shape: enumerate every id, let the shared resolve stage
    // bulk-retrieve (through the document cache when present) and the
    // shared verify stage apply the range predicate after decryption.
    CollectionRuntime* rtp = &rt;
    p.stages.push_back(
        {"index", {{"range:PostFilter:" + field, nullptr,
                    /*exclusive=*/false, [this, rtp, scratch] {
                      const ScopedPerf perf(perf_, kPostFilterTactic,
                                            TacticOperation::kRangeQuery);
                      const Bytes reply = cloud_.call(
                          "doc.list",
                          wire::pack({{"col", Value(rtp->schema.name())}}));
                      const doc::Object resp = wire::unpack(reply);
                      for (const auto& v : wire::get_arr(resp, "ids")) {
                        scratch->id_slots[0].push_back(v.as_string());
                      }
                      scratch->approximate = true;
                    }}}});
  } else {
    p.stages.push_back(
        {"index", {{"range:" + slot->tactic->descriptor().name + ":" + field,
                    &slot->mutex,
                    /*exclusive=*/false, [this, slot, scratch, &lo, &hi] {
                      const ScopedPerf perf(perf_, slot->tactic->descriptor().name,
                                            TacticOperation::kRangeQuery);
                      scratch->id_slots[0] = slot->tactic->range_search(lo, hi);
                    }}}});
  }

  append_resolve_stage(p, rt, scratch,
                       [scratch] { return scratch->id_slots[0]; }, "doc.mget");

  // RangeResolution: exact bound re-check after decryption (no-op for
  // exact indexes on consistent data; shields against concurrent updates).
  const std::string f = field;
  p.stages.push_back(
      {"verify", {{"range-resolution", nullptr, false, [scratch, f, &lo, &hi] {
                     std::erase_if(scratch->docs, [&](const Document& d) {
                       return !in_range(d, f, lo, hi);
                     });
                   }}}});
  return p;
}

OperationPlan Planner::aggregate(CollectionRuntime& rt, const std::string& field,
                                 schema::Aggregate agg) const {
  TacticSlot* slot = nullptr;
  if (agg == schema::Aggregate::kMin || agg == schema::Aggregate::kMax) {
    auto it = rt.range.find(field);
    if (it == rt.range.end()) {
      throw_error(ErrorCode::kPolicyViolation,
                  "aggregate: min/max on '" + field + "' needs a range tactic");
    }
    slot = &it->second;
  } else {
    auto it = rt.agg.find(field);
    if (it == rt.agg.end()) {
      throw_error(ErrorCode::kPolicyViolation,
                  "aggregate: field '" + field + "' has no aggregate tactic");
    }
    slot = &it->second;
  }

  OperationPlan p;
  p.collection = rt.schema.name();
  p.op = op_of(agg);
  p.inline_only = cloud_.in_deferred_section();
  p.scratch = std::make_shared<QueryScratch>();
  auto scratch = p.scratch;

  p.stages.push_back(
      {"aggregate", {{"agg:" + slot->tactic->descriptor().name + ":" + field,
                      &slot->mutex, /*exclusive=*/false, [this, slot, scratch, agg] {
                        const ScopedPerf perf(perf_, slot->tactic->descriptor().name,
                                              op_of(agg));
                        scratch->agg = slot->tactic->aggregate(agg);
                      }}}});
  return p;
}

}  // namespace datablinder::core::exec
