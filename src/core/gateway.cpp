#include "core/gateway.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <unordered_set>

#include "common/hex.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/wire.hpp"

namespace datablinder::core {

using doc::Document;
using doc::Value;

namespace {

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

Gateway::Gateway(net::RpcClient& cloud, kms::KeyManager& kms,
                 store::KvStore& local_store, const TacticRegistry& registry,
                 GatewayConfig config)
    : cloud_(cloud),
      kms_(kms),
      local_store_(local_store),
      registry_(registry),
      config_(std::move(config)),
      policy_(registry),
      cost_model_(config_.adaptive_selection
                      ? std::make_unique<CostModel>(perf_, config_.cost)
                      : nullptr),
      pool_(exec::default_workers()) {
  if (!config_.retry.retryable_methods.empty()) cloud_.set_retry_policy(config_.retry);
  cloud_.set_counters(&perf_);
  if (config_.journal_inserts) {
    journal_ = std::make_unique<exec::IntentJournal>(local_store_, cloud_);
  }
}

Gateway::~Gateway() { cloud_.set_counters(nullptr); }

GatewayContext Gateway::make_context(const std::string& collection,
                                     const std::string& field) {
  GatewayContext ctx;
  ctx.cloud = &cloud_;
  ctx.local_store = &local_store_;
  ctx.kms = &kms_;
  ctx.perf = &perf_;
  ctx.collection = collection;
  ctx.field = field;
  ctx.params = config_.tactic_params;
  return ctx;
}

void Gateway::register_schema(schema::Schema s) {
  const std::string name = s.name();
  require(!name.empty(), "register_schema: schema needs a name");

  auto rt = std::make_unique<exec::CollectionRuntime>();
  rt->plan = policy_.select(s);
  rt->schema = std::move(s);
  rt->doc_cipher =
      std::make_unique<crypto::AesGcm>(kms_.derive("doc/" + name, 32));

  // Instantiate the selected tactics (runtime strategy loading).
  if (!rt->plan.boolean_tactic.empty()) {
    rt->boolean = registry_.create_boolean(rt->plan.boolean_tactic,
                                           make_context(name, ""));
    rt->boolean->setup();
  }
  for (const auto& [field, fp] : rt->plan.fields) {
    auto instantiate = [&](const std::string& tactic,
                           std::map<std::string, exec::TacticSlot>& slots) {
      if (tactic.empty()) return;
      auto t = registry_.create_field(tactic, make_context(name, field));
      t->setup();
      slots[field].tactic = std::move(t);
    };
    instantiate(fp.eq_tactic, rt->eq);
    instantiate(fp.range_tactic, rt->range);
    instantiate(fp.agg_tactic, rt->agg);

    // Adaptive selection: instantiate every other admissible range
    // candidate too, so the cost model can reroute queries without an
    // index rebuild. With adaptation off this loop body never runs and
    // the runtime is identical to the static build.
    if (config_.adaptive_selection) {
      for (std::size_t i = 1; i < fp.range_candidates.size(); ++i) {
        const std::string& alt = fp.range_candidates[i];
        auto t = registry_.create_field(alt, make_context(name, field));
        t->setup();
        rt->range_alts[field][alt].tactic = std::move(t);
      }
    }
  }

  std::lock_guard lock(collections_mutex_);
  if (collections_.count(name)) {
    throw_error(ErrorCode::kAlreadyExists, "register_schema: duplicate '" + name + "'");
  }
  DB_LOG_INFO << "gateway: registered schema '" << name << "' with "
              << rt->plan.fields.size() << " protected fields";
  collections_.emplace(name, std::move(rt));
}

exec::CollectionRuntime& Gateway::runtime(const std::string& collection) {
  std::lock_guard lock(collections_mutex_);
  auto it = collections_.find(collection);
  if (it == collections_.end()) {
    throw_error(ErrorCode::kNotFound, "gateway: unknown collection '" + collection + "'");
  }
  return *it->second;
}

const exec::CollectionRuntime& Gateway::runtime(const std::string& collection) const {
  std::lock_guard lock(collections_mutex_);
  auto it = collections_.find(collection);
  if (it == collections_.end()) {
    throw_error(ErrorCode::kNotFound, "gateway: unknown collection '" + collection + "'");
  }
  return *it->second;
}

const CollectionPlan& Gateway::plan(const std::string& collection) const {
  return runtime(collection).plan;
}

DocId Gateway::generate_doc_id() {
  // DocIDGen SPI role: uniform random ids so identifiers carry no content.
  return hex_encode(SecureRng::bytes(12));
}

void Gateway::run_steps(std::size_t n, const std::function<void(std::size_t)>& step) {
  if (n == 1) {
    step(0);
  } else {
    pool_.run_all(n, step);
  }
}

Document Gateway::get_document(const exec::CollectionRuntime& rt, const DocId& id) {
  const Bytes reply = cloud_.call(
      "doc.get", wire::pack({{"col", Value(rt.schema.name())}, {"id", Value(id)}}));
  return rt.open_document(id, wire::get_bin(wire::unpack(reply), "blob"));
}

bool Gateway::resume_pending(const std::string& collection, const DocId& id) {
  if (journal_ == nullptr) return false;
  const auto intent = journal_->find(collection, id);
  if (!intent) return false;
  // Byte-identical replay of the recorded ciphertexts, never a second
  // encryption of the same plaintext.
  journal_->resume(*intent);
  perf_.incr("core.journal.resume");
  return true;
}

void Gateway::write(exec::CollectionRuntime& rt, TacticOperation op,
                    const std::vector<Change>& changes, bool bulk) {
  auto erase = [&](const DocId& id) {
    cloud_.call("doc.del", wire::pack({{"col", Value(rt.schema.name())}, {"id", Value(id)}}));
  };
  const char* index_stage = op == TacticOperation::kDelete ? "core.unindex" : "core.index";
  std::vector<std::vector<exec::WritePart>> parts;
  for (const Change& c : changes) parts.push_back(rt.write_parts(c.before, c.after));

  if (journal_ == nullptr && !bulk) {
    // Store before indexing, unindex before deleting: an index entry never
    // names a document the cloud has not stored.
    const Change& c = changes.front();
    const std::vector<exec::WritePart>& ps = parts.front();
    if (c.after != nullptr) {
      const ScopedPerf stage(perf_, "core.store", op);
      rt.store(cloud_, *c.after);
    }
    if (!ps.empty()) {
      const ScopedPerf stage(perf_, index_stage, op);
      run_steps(ps.size(), [&](std::size_t i) { ps[i].run(&perf_); });
    }
    if (c.after == nullptr) {
      const ScopedPerf stage(perf_, "core.delete", op);
      erase(c.before->id);
    }
    return;
  }

  // Per change: its store, its parts, then its delete, each one step whose
  // requests are captured on the thread that runs it.
  std::vector<std::function<void()>> steps;
  std::vector<std::string> ids;
  for (std::size_t k = 0; k < changes.size(); ++k) {
    const Change& c = changes[k];
    ids.push_back(c.after != nullptr ? c.after->id : c.before->id);
    if (c.after != nullptr) steps.emplace_back([&] { rt.store(cloud_, *c.after); });
    for (const exec::WritePart& part : parts[k]) {
      steps.emplace_back([this, &part] { part.run(&perf_); });
    }
    if (c.after == nullptr) steps.emplace_back([&] { erase(c.before->id); });
  }
  std::vector<std::vector<net::Request>> captured(steps.size());
  {
    const ScopedPerf stage(perf_, index_stage, op);
    run_steps(steps.size(), [&](std::size_t i) { captured[i] = cloud_.capture(steps[i]); });
  }
  std::vector<net::Request> batch;
  for (auto& requests : captured) {
    std::move(requests.begin(), requests.end(), std::back_inserter(batch));
  }
  if (journal_ == nullptr) {
    cloud_.send_batch(batch);
    return;
  }
  // Journal the exact wire bytes durably BEFORE anything ships, then send
  // the whole batch in one round trip. A fault between begin and complete
  // leaves a pending intent that recover_pending_inserts() or a later
  // write of one of `ids` replays byte-identically.
  const std::string token = journal_->begin(rt.schema.name(), ids, batch);
  perf_.incr("core.journal.begin");
  cloud_.send_batch(batch);
  journal_->complete(token);
}

DocId Gateway::insert(const std::string& collection, Document d) {
  exec::CollectionRuntime& rt = runtime(collection);
  rt.schema.validate(d);
  if (d.id.empty()) d.id = generate_doc_id();
  // Retried insert: a pending intent for this id means a previous attempt
  // already journaled its mutations — finishing THAT attempt is the insert
  // (exactly-once).
  if (resume_pending(collection, d.id)) return d.id;
  write(rt, TacticOperation::kInsert, {{nullptr, &d}}, /*bulk=*/false);
  rt.doc_count.fetch_add(1, std::memory_order_relaxed);
  return d.id;
}

std::size_t Gateway::recover_pending_inserts() {
  if (journal_ == nullptr) return 0;
  const std::size_t n = journal_->resume_all();
  if (n > 0) perf_.incr("core.journal.resume", n);
  return n;
}

std::vector<DocId> Gateway::insert_many(const std::string& collection,
                                        std::vector<Document> docs) {
  exec::CollectionRuntime& rt = runtime(collection);
  std::vector<DocId> ids;
  std::vector<Change> changes;
  ids.reserve(docs.size());
  changes.reserve(docs.size());
  for (auto& d : docs) {
    rt.schema.validate(d);
    if (d.id.empty()) d.id = generate_doc_id();
    ids.push_back(d.id);
    changes.push_back({nullptr, &d});
  }
  // (Bulk retry goes through recover_pending_inserts(), not the per-id
  // resume of insert().)
  if (!changes.empty()) write(rt, TacticOperation::kInsert, changes, /*bulk=*/true);
  rt.doc_count.fetch_add(ids.size(), std::memory_order_relaxed);
  return ids;
}

Document Gateway::read(const std::string& collection, const DocId& id) {
  exec::CollectionRuntime& rt = runtime(collection);
  const ScopedPerf stage(perf_, "core.retrieve", TacticOperation::kRead);
  return get_document(rt, id);
}

void Gateway::remove(const std::string& collection, const DocId& id) {
  exec::CollectionRuntime& rt = runtime(collection);
  constexpr TacticOperation op = TacticOperation::kDelete;
  const bool resumed = resume_pending(collection, id);
  // Retrieval first: index removal needs the field values.
  Document old;
  try {
    const ScopedPerf stage(perf_, "core.retrieve", op);
    old = get_document(rt, id);
  } catch (const Error& e) {
    // The resumed intent was this removal, retried: nothing is left to do.
    if (resumed && e.code() == ErrorCode::kNotFound) return;
    throw;
  }
  write(rt, op, {{&old, nullptr}}, /*bulk=*/false);
  // Saturating decrement: the count is approximate under recovery.
  std::uint64_t n = rt.doc_count.load(std::memory_order_relaxed);
  while (n > 0 &&
         !rt.doc_count.compare_exchange_weak(n, n - 1, std::memory_order_relaxed)) {
  }
}

void Gateway::update(const std::string& collection, Document d) {
  require(!d.id.empty(), "update: document needs an id");
  exec::CollectionRuntime& rt = runtime(collection);
  constexpr TacticOperation op = TacticOperation::kUpdate;
  rt.schema.validate(d);
  resume_pending(collection, d.id);
  Document old;
  {
    const ScopedPerf stage(perf_, "core.retrieve", op);
    old = get_document(rt, d.id);
  }
  write(rt, op, {{&old, &d}}, /*bulk=*/false);
}

std::vector<Document> Gateway::search(exec::CollectionRuntime& rt, TacticOperation op,
                                      const std::function<std::vector<DocId>()>& lookup,
                                      const std::function<bool(const Document&)>& keep) {
  std::vector<DocId> ids;
  {
    const ScopedPerf stage(perf_, "core.index", op);
    ids = lookup();
  }

  std::vector<Document> docs;
  {
    const ScopedPerf stage(perf_, "core.resolve", op);
    docs = rt.resolve(cloud_, ids);
  }

  // Eq/Bool/RangeResolution: exact post-filtering after decryption.
  // Unconditional — required for candidate sets (RND's full scan, ZMF's
  // false positives, the post-filter shape), and under per-tactic locking
  // it also shields exact tactics from candidates replaced by a concurrent
  // update between index query and retrieval.
  const ScopedPerf stage(perf_, "core.verify", op);
  std::erase_if(docs, [&](const Document& d) { return !keep(d); });
  return docs;
}

std::vector<Document> Gateway::search(exec::CollectionRuntime& rt, TacticOperation op,
                                      const FieldBoolQuery& query) {
  require(!query.dnf.empty(), "search: empty query");
  // Every conjunction is routed before any tactic runs, so a query naming a
  // field no tactic searches fails before it reaches the cloud.
  std::vector<exec::Lookup> lookups;
  lookups.reserve(query.dnf.size());
  for (const auto& conj : query.dnf) lookups.push_back(rt.lookup(conj));

  const auto lookup = [&]() -> std::vector<DocId> {
    // Conjunctions are independent, so they fan out; their ids merge in
    // disjunct order, each kept once (what sequential evaluation gives).
    std::vector<std::vector<DocId>> per_conj(lookups.size());
    run_steps(lookups.size(), [&](std::size_t i) { per_conj[i] = lookups[i].run(op, &perf_); });
    if (per_conj.size() == 1) return std::move(per_conj.front());
    std::vector<DocId> ids;
    std::unordered_set<DocId> seen;
    for (auto& conj_ids : per_conj) {
      for (auto& id : conj_ids) {
        if (seen.insert(id).second) ids.push_back(std::move(id));
      }
    }
    return ids;
  };
  return search(rt, op, lookup, [&](const Document& d) {
    return std::any_of(query.dnf.begin(), query.dnf.end(), [&](const auto& conj) {
      return std::all_of(conj.begin(), conj.end(), [&](const FieldTerm& t) {
        return exec::term_matches(d, t.field, t.value);
      });
    });
  });
}

std::vector<Document> Gateway::equality_search(const std::string& collection,
                                               const std::string& field,
                                               const Value& value) {
  return search(runtime(collection), TacticOperation::kEqualitySearch,
                FieldBoolQuery{{{FieldTerm{field, value}}}});
}

std::vector<Document> Gateway::boolean_search(const std::string& collection,
                                              const FieldBoolQuery& query) {
  return search(runtime(collection), TacticOperation::kBooleanSearch, query);
}

std::vector<Document> Gateway::range_search(const std::string& collection,
                                            const std::string& field, const Value& lo,
                                            const Value& hi) {
  exec::CollectionRuntime& rt = runtime(collection);
  auto it = rt.range.find(field);
  if (it == rt.range.end()) {
    throw_error(ErrorCode::kPolicyViolation,
                "range_search: field '" + field + "' has no range tactic (op RG "
                "not annotated?)");
  }
  exec::TacticSlot* slot = &it->second;
  constexpr TacticOperation op = TacticOperation::kRangeQuery;

  // Adaptive re-planning: rank the leakage-admissible candidates — the
  // static choice, its instantiated alternates, and the
  // retrieve-and-post-filter shape (leaks structure only, so admissible at
  // every class) — by predicted cost at the observed cardinality.
  bool post_filter = false;
  std::optional<ScopedPerf> whole;
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
        rt.schema.name() + "/" + field + "/range", static_name, cands, op,
        rt.doc_count.load(std::memory_order_relaxed));
    if (dec.chosen == kPostFilterTactic) {
      post_filter = true;
    } else if (dec.chosen != static_name) {
      slot = &ait->second.at(dec.chosen);
    }
    {
      std::lock_guard<std::mutex> lock(rt.plan_mutex);
      FieldPlan& fp = rt.plan.fields.at(field);
      fp.range_last_choice = dec.chosen;
      fp.range_chosen_by = dec.chosen_by;
      fp.range_predicted_us = dec.predicted_us;
    }
    // Whole-query latency under "plan.<candidate>" — the live evidence the
    // cost model blends against the static priors next time it ranks. It
    // spans all three stages of the search below.
    whole.emplace(perf_, CostModel::plan_series(dec.chosen), op);
  }

  const auto lookup = [&]() -> std::vector<DocId> {
    if (post_filter) {
      // Post-filter shape: enumerate every id, let resolve bulk-retrieve
      // and verify apply the range predicate after decryption.
      const ScopedPerf perf(perf_, kPostFilterTactic, op);
      return wire::unpack_ids(
          cloud_.call("doc.list", wire::pack({{"col", Value(rt.schema.name())}})));
    }
    return exec::query_shared(slot->mutex, slot->tactic->descriptor(), op, &perf_,
                              [&] { return slot->tactic->range_search(lo, hi); });
  };
  return search(rt, op, lookup,
                [&](const Document& d) { return exec::in_range(d, field, lo, hi); });
}

AggregateResult Gateway::aggregate(const std::string& collection,
                                   const std::string& field, schema::Aggregate agg) {
  const exec::TacticSlot& slot = runtime(collection).aggregate_slot(field, agg);
  const TacticOperation op = op_of(agg);
  const ScopedPerf stage(perf_, "core.aggregate", op);
  return exec::query_shared(slot.mutex, slot.tactic->descriptor(), op, &perf_,
                            [&] { return slot.tactic->aggregate(agg); });
}

}  // namespace datablinder::core
