#include "core/gateway.hpp"

#include <set>

#include "common/hex.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace datablinder::core {

using doc::Document;
using doc::Value;

namespace {

// Fire-and-forget update methods whose responses are empty by protocol.
// mitrasl.* is deliberately absent: its update protocol reads the current
// counter from the server, so deferring would use stale counters (and, for
// the same reason, Mitra-SL updates sit outside the insert intent journal).
const std::set<std::string>& deferrable_methods() {
  static const std::set<std::string> kDeferrable = {
      "doc.put",      "det.insert", "ope.insert", "ore.insert",
      "mitra.update", "iex.update", "zmf.update", "sophos.update",
      "agg.insert"};
  return kDeferrable;
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
      cache_(config_.hot_cache_capacity > 0
                 ? std::make_unique<HotCache>(&perf_,
                                              HotCache::Config{config_.hot_cache_capacity})
                 : nullptr),
      cost_model_(config_.adaptive_selection
                      ? std::make_unique<CostModel>(perf_, config_.cost, cache_.get())
                      : nullptr),
      planner_(cloud_, perf_, cache_.get(), cost_model_.get()),
      executor_(perf_) {
  if (config_.retry.enabled) cloud_.set_retry_policy(config_.retry);
  if (config_.breaker.enabled && cloud_.breaker() != nullptr) {
    cloud_.breaker()->configure(config_.breaker);
  }
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
  ctx.cache = cache_.get();
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

const schema::Schema& Gateway::schema_of(const std::string& collection) const {
  return runtime(collection).schema;
}

DocId Gateway::generate_doc_id() {
  // DocIDGen SPI role: uniform random ids so identifiers carry no content.
  return hex_encode(SecureRng::bytes(12));
}

void Gateway::journaled_run(const std::string& collection,
                            const std::vector<std::string>& ids,
                            const std::function<void()>& body) {
  // Capture: the plan runs fully (gateway-side tactic state advances) but
  // every deferrable cloud mutation is queued, not sent.
  cloud_.begin_deferred(deferrable_methods());
  std::vector<net::Request> captured;
  try {
    body();
    captured = cloud_.take_deferred();
  } catch (...) {
    cloud_.abandon_deferred();
    throw;
  }
  // Journal the exact wire bytes durably BEFORE anything ships, then send
  // the whole batch in one round trip. A fault between begin and complete
  // leaves a pending intent that recover_pending_inserts()/a retried
  // insert replays byte-identically.
  const std::string token = journal_->begin(collection, ids, captured);
  perf_.incr("core.journal.begin");
  cloud_.send_batch(captured);
  journal_->complete(token);
}

DocId Gateway::insert(const std::string& collection, Document d) {
  exec::CollectionRuntime& rt = runtime(collection);
  rt.schema.validate(d);
  if (d.id.empty()) d.id = generate_doc_id();

  if (journal_ != nullptr) {
    // Retried insert: a pending intent for this id means a previous attempt
    // already journaled its mutations — finish THAT attempt by replaying
    // its recorded ciphertexts instead of re-encrypting (exactly-once).
    if (auto intent = journal_->find(collection, d.id)) {
      journal_->resume(*intent);
      perf_.incr("core.journal.resume");
      return d.id;
    }
    journaled_run(collection, {d.id}, [&] {
      auto plan = planner_.insert(rt, d);
      executor_.run(plan);
    });
    rt.doc_count.fetch_add(1, std::memory_order_relaxed);
    return d.id;
  }

  auto plan = planner_.insert(rt, d);
  executor_.run(plan);
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
  ids.reserve(docs.size());
  for (auto& d : docs) {
    rt.schema.validate(d);
    if (d.id.empty()) d.id = generate_doc_id();
    ids.push_back(d.id);
  }

  auto run_all = [&] {
    for (auto& d : docs) {
      // Plans built inside the deferred section are flagged inline_only,
      // so every deferrable call stays on this thread's batch queue.
      auto plan = planner_.insert(rt, d);
      executor_.run(plan);
    }
  };

  if (journal_ != nullptr) {
    // Same single-round-trip shape, with the batch journaled before it
    // ships. (Bulk retry goes through recover_pending_inserts(), not the
    // per-id fast path of insert().)
    journaled_run(collection, ids, run_all);
    rt.doc_count.fetch_add(ids.size(), std::memory_order_relaxed);
    return ids;
  }

  cloud_.begin_deferred(deferrable_methods());
  try {
    run_all();
  } catch (...) {
    cloud_.abandon_deferred();
    throw;
  }
  cloud_.flush_deferred();
  rt.doc_count.fetch_add(ids.size(), std::memory_order_relaxed);
  return ids;
}

Document Gateway::read(const std::string& collection, const DocId& id) {
  exec::CollectionRuntime& rt = runtime(collection);
  auto plan = planner_.read(rt, id);
  executor_.run(plan);
  return std::move(plan.scratch->docs.at(0));
}

void Gateway::remove(const std::string& collection, const DocId& id) {
  exec::CollectionRuntime& rt = runtime(collection);
  auto plan = planner_.remove(rt, id);
  executor_.run(plan);
  // Saturating decrement: the count is approximate under recovery.
  std::uint64_t n = rt.doc_count.load(std::memory_order_relaxed);
  while (n > 0 &&
         !rt.doc_count.compare_exchange_weak(n, n - 1, std::memory_order_relaxed)) {
  }
  // Any removal (update = remove + insert) may orphan cached documents of
  // this collection: bump the epoch so they all go stale at once.
  if (cache_ != nullptr) cache_->bump_epoch(collection);
}

void Gateway::update(const std::string& collection, Document d) {
  require(!d.id.empty(), "update: document needs an id");
  remove(collection, d.id);
  insert(collection, std::move(d));
}

std::vector<Document> Gateway::equality_search(const std::string& collection,
                                               const std::string& field,
                                               const Value& value) {
  exec::CollectionRuntime& rt = runtime(collection);
  auto plan = planner_.equality_search(rt, field, value);
  executor_.run(plan);
  return std::move(plan.scratch->docs);
}

std::vector<Document> Gateway::boolean_search(const std::string& collection,
                                              const FieldBoolQuery& query) {
  exec::CollectionRuntime& rt = runtime(collection);
  auto plan = planner_.boolean_search(rt, query);
  executor_.run(plan);
  return std::move(plan.scratch->docs);
}

std::vector<Document> Gateway::range_search(const std::string& collection,
                                            const std::string& field, const Value& lo,
                                            const Value& hi) {
  exec::CollectionRuntime& rt = runtime(collection);
  auto plan = planner_.range_search(rt, field, lo, hi);
  if (!plan.cost_series.empty()) {
    // Whole-plan latency under "plan.<candidate>" — the live evidence the
    // cost model blends against the static priors next time it ranks.
    const ScopedPerf perf(perf_, plan.cost_series, TacticOperation::kRangeQuery);
    executor_.run(plan);
  } else {
    executor_.run(plan);
  }
  return std::move(plan.scratch->docs);
}

AggregateResult Gateway::aggregate(const std::string& collection,
                                   const std::string& field, schema::Aggregate agg) {
  exec::CollectionRuntime& rt = runtime(collection);
  auto plan = planner_.aggregate(rt, field, agg);
  executor_.run(plan);
  return plan.scratch->agg;
}

}  // namespace datablinder::core
