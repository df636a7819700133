#include "net/shard_router.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/status.hpp"
#include "doc/binary_codec.hpp"
#include "doc/value.hpp"
#include "doc/wire.hpp"
#include "net/message.hpp"
#include "net/methods.hpp"

namespace datablinder::net {

namespace {

using bigint::BigInt;
using doc::Value;
using doc::wire::get;
using doc::wire::get_arr;
using doc::wire::get_bin;
using doc::wire::get_int;
using doc::wire::get_str;
using doc::wire::pack;
using doc::wire::unpack;

std::string raw(const Bytes& b) { return std::string(b.begin(), b.end()); }

// splitmix64 finalizer: cheap, well-mixed, and fully deterministic — ring
// placement must be a pure function of (shards, virtual nodes, seed).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_key(std::string_view key) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return mix64(h);
}

/// The table row of a method the router can place; kProtocolError for a
/// method outside the table.
const MethodInfo& routable(const std::string& method) {
  const MethodInfo* info = find_method(method);
  if (info == nullptr) {
    throw_error(ErrorCode::kProtocolError, "shard router: unroutable method " + method);
  }
  return *info;
}

}  // namespace

// --- HashRing ---------------------------------------------------------------

HashRing::HashRing(std::size_t shards, RingConfig config)
    : shards_(std::max<std::size_t>(1, shards)) {
  const std::size_t vnodes = std::max<std::size_t>(1, config.virtual_nodes);
  points_.reserve(shards_ * vnodes);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      const std::uint64_t point = mix64(config.seed ^
                                        mix64((s + 1) * 0x9E3779B97F4A7C15ULL) ^
                                        mix64((v + 1) * 0xC2B2AE3D27D4EB4FULL));
      points_.emplace_back(point, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::size_t HashRing::shard_of(std::string_view key) const {
  if (shards_ == 1) return 0;
  const std::uint64_t h = hash_key(key);
  auto it = std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(h, std::uint32_t{0}));
  if (it == points_.end()) it = points_.begin();  // wrap around the ring
  return it->second;
}

// --- ShardRouter ------------------------------------------------------------

// Sub-calls BLOCK their worker for the whole channel exchange, so the pool
// must not serialize concurrent scatters from different gateway threads:
// it grows on demand up to this bound.
ShardRouter::ShardRouter(std::vector<ReplicaGroup*> shards)
    : shards_(std::move(shards)),
      ring_(shards_.size()),
      pool_(std::max<std::size_t>(32, shards_.size() * 16)) {
  if (shards_.empty()) {
    throw_error(ErrorCode::kInvalidArgument, "shard router needs >= 1 backend");
  }
}

std::string ShardRouter::doc_key(std::string_view col, std::string_view id) {
  std::string key = "doc/";
  key.append(col).append("/").append(id);
  return key;
}

std::size_t ShardRouter::shard_of_doc(const std::string& col,
                                      const std::string& id) const {
  return ring_.shard_of(doc_key(col, id));
}

Bytes ShardRouter::call_shard(std::size_t i, const std::string& method,
                              const Bytes& wire) {
  return shards_[i]->call(method, wire);
}

Bytes ShardRouter::sub_request(const std::string& method, Bytes payload) {
  Request r;
  r.method = method;
  r.payload = std::move(payload);
  return r.serialize();
}

void ShardRouter::set_counters(Counters* counters) {
  counters_.bind(counters);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // Instance labeling: the aggregate series keeps its historical name,
    // and a bounded per-shard alias ("net.shard.<i>.replica.*") keeps
    // multi-instance counters distinct instead of colliding on one key.
    shards_[i]->set_counters(counters, "net.shard." + std::to_string(i) + ".");
  }
}

void ShardRouter::set_hedgeable(MethodPredicate pred) {
  for (auto* shard : shards_) shard->set_hedgeable(pred);
}

std::vector<Bytes> ShardRouter::fan_out(
    const std::string& method, const std::vector<std::pair<std::size_t, Bytes>>& calls) {
  std::vector<Bytes> out(calls.size());
  if (calls.empty()) return out;
  if (calls.size() == 1) {
    out[0] = call_shard(calls[0].first, method, calls[0].second);
    return out;
  }
  counters_.incr("net.shard.scatter");
  counters_.incr("net.shard.subcalls", calls.size());

  // Every sub-call writes its own slot, so `out` needs no lock.
  pool_.run_all(calls.size(), [this, &method, &calls, &out](std::size_t k) {
    out[k] = call_shard(calls[k].first, method, calls[k].second);
  });
  return out;
}

Bytes ShardRouter::route_single(std::size_t shard, const std::string& method,
                                const Bytes& wire) {
  counters_.incr("net.shard.route");
  return call_shard(shard, method, wire);
}

std::size_t ShardRouter::single_shard_of(const MethodInfo& info,
                                         const Bytes& payload) const {
  const doc::Object obj = unpack(payload);
  // Documents shard by id; DET postings by keyword label; Mitra postings
  // by PRF-derived address; aggregate rows by id. Server-side structures
  // that cannot be split (OPE/ORE orderings, Sophos chains, Mitra-SL
  // counter coupling, IEX/ZMF boolean indexes) scope-route whole, keyed by
  // the method's family (the name before its '.').
  const std::string_view family = info.name.substr(0, info.name.find('.'));
  switch (info.placement) {
    case Placement::kDocId:
      return ring_.shard_of(doc_key(get_str(obj, "col"), get_str(obj, "id")));
    case Placement::kPlainDoc: {
      const std::string id = obj.find("doc") != obj.end()
                                 ? doc::decode_document(get_bin(obj, "doc")).id
                                 : get_str(obj, "id");
      return ring_.shard_of(doc_key("plain:" + get_str(obj, "col"), id));
    }
    case Placement::kDetLabel:
      return ring_.shard_of("det/" + get_str(obj, "col") + "/" + get_str(obj, "field") +
                            "/" + raw(get_bin(obj, "label")));
    case Placement::kSseAddress:
      return ring_.shard_of("sse/" + get_str(obj, "scope") + "/" +
                            raw(get_bin(obj, "address")));
    case Placement::kAggRow:
      return ring_.shard_of("agg/" + get_str(obj, "scope") + "/" + get_str(obj, "id"));
    case Placement::kColumnScope:
      return ring_.shard_of("scope/" + std::string(family) + "/" + get_str(obj, "col") +
                            "/" + get_str(obj, "field"));
    case Placement::kNamedScope:
      return ring_.shard_of("scope/" + std::string(family) + "/" + get_str(obj, "scope"));
    case Placement::kScatterMget:
    case Placement::kScatterMitra:
    case Placement::kBroadcast:
    case Placement::kSplitBatch:
      break;
  }
  throw_error(ErrorCode::kProtocolError,
              "shard router: " + std::string(info.name) + " does not route to one shard");
}

// --- scatter / merge --------------------------------------------------------

Bytes ShardRouter::scatter_mget(const std::string& method, const Bytes& payload) {
  const doc::wire::MgetRequest req = doc::wire::unpack_mget(payload);
  const std::vector<std::string_view>& ids = req.ids;

  std::vector<std::size_t> owner(ids.size());
  std::vector<std::vector<std::string_view>> per_shard(shards_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    owner[i] = ring_.shard_of(doc_key(req.col, ids[i]));
    per_shard[owner[i]].push_back(ids[i]);
  }

  std::vector<std::pair<std::size_t, Bytes>> calls;
  std::vector<std::size_t> call_shard_index;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    calls.emplace_back(s, sub_request(method, doc::wire::pack_mget(req.col, per_shard[s])));
    call_shard_index.push_back(s);
  }
  const std::vector<Bytes> replies = fan_out(method, calls);

  // Per-shard id -> blob view into that shard's reply; the merged response
  // preserves the original id order and skips vanished ids, exactly like a
  // single node's doc.mget.
  std::vector<std::unordered_map<std::string_view, BytesView>> found(shards_.size());
  for (std::size_t k = 0; k < replies.size(); ++k) {
    auto& shard_found = found[call_shard_index[k]];
    doc::wire::for_each_doc(replies[k], [&](std::string_view id, BytesView blob) {
      shard_found[id] = blob;
    });
  }
  doc::wire::DocsWriter out(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& shard_found = found[owner[i]];
    auto it = shard_found.find(ids[i]);
    if (it != shard_found.end()) out.add(ids[i], it->second);
  }
  return out.finish();
}

Bytes ShardRouter::scatter_mitra_search(const std::string& method,
                                        const Bytes& payload) {
  const doc::Object obj = unpack(payload);
  const std::string scope = get_str(obj, "scope");
  const doc::Array& addresses = get_arr(obj, "addresses");

  std::vector<std::size_t> owner(addresses.size());
  std::vector<doc::Array> per_shard(shards_.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    owner[i] = ring_.shard_of("sse/" + scope + "/" + raw(addresses[i].as_binary()));
    per_shard[owner[i]].push_back(addresses[i]);
  }

  std::vector<std::pair<std::size_t, Bytes>> calls;
  std::vector<std::size_t> call_shard_index;
  std::vector<std::size_t> requested(shards_.size(), 0);
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    requested[s] = per_shard[s].size();
    calls.emplace_back(
        s, sub_request(method,
                       pack({{"scope", Value(scope)},
                             {"addresses", Value(std::move(per_shard[s]))}})));
    call_shard_index.push_back(s);
  }
  const std::vector<Bytes> replies = fan_out(method, calls);

  // Positional merge: each shard answers one slot per address in request
  // order (empty for a miss), so a short reply would silently misalign
  // values; it fails loudly instead.
  std::vector<std::deque<Value>> queues(shards_.size());
  for (std::size_t k = 0; k < replies.size(); ++k) {
    const doc::Object resp = unpack(replies[k]);
    const doc::Array& values = get_arr(resp, "values");
    const std::size_t s = call_shard_index[k];
    if (values.size() != requested[s]) {
      throw_error(ErrorCode::kInternal,
                  "shard router: short mitra reply (" + std::to_string(values.size()) +
                      "/" + std::to_string(requested[s]) + ")");
    }
    for (const auto& v : values) queues[s].push_back(v);
  }
  doc::Array out;
  out.reserve(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    out.push_back(std::move(queues[owner[i]].front()));
    queues[owner[i]].pop_front();
  }
  return pack({{"values", Value(std::move(out))}});
}

Bytes ShardRouter::broadcast(const MethodInfo& info, const Bytes& wire) {
  const std::string method(info.name);
  // agg.setup carries the Paillier public modulus: remember n^2 per scope
  // BEFORE fanning out, so a later agg.sum can merge partials even if it
  // races the setup acks.
  if (info.merge == Merge::kPaillierSetup) {
    const Request req = Request::deserialize(wire);
    const doc::Object obj = unpack(req.payload);
    const BigInt n = BigInt::from_bytes(get_bin(obj, "n"));
    AggScope scope;
    scope.n_squared = n * n;
    if (scope.n_squared.is_odd()) {
      scope.mont = std::make_shared<const bigint::Montgomery>(scope.n_squared);
    }
    std::lock_guard lock(agg_mutex_);
    agg_scopes_[get_str(obj, "scope")] = std::move(scope);
  }

  counters_.incr("net.shard.broadcast");
  std::vector<std::pair<std::size_t, Bytes>> calls;
  calls.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) calls.emplace_back(s, wire);
  const std::vector<Bytes> replies = fan_out(method, calls);

  switch (info.merge) {
    case Merge::kIds: {
      doc::wire::IdsWriter ids;
      for (const auto& reply : replies) {
        for (const auto& id : doc::wire::unpack_ids(reply)) ids.add(id);
      }
      return ids.finish();
    }
    case Merge::kDocs: {
      doc::Array docs;
      for (const auto& reply : replies) {
        const doc::Object resp = unpack(reply);
        for (const auto& d : get_arr(resp, "docs")) docs.push_back(d);
      }
      return pack({{"docs", Value(std::move(docs))}});
    }
    case Merge::kPlainAvg: {
      double sum = 0.0;
      std::int64_t count = 0;
      for (const auto& reply : replies) {
        const doc::Object resp = unpack(reply);
        sum += get(resp, "sum").as_double();
        count += get_int(resp, "count");
      }
      return pack({{"sum", Value(sum)}, {"count", Value(count)}});
    }
    case Merge::kPaillierSum: {
      const Request req = Request::deserialize(wire);
      const std::string scope_name = get_str(unpack(req.payload), "scope");
      AggScope scope;
      {
        std::lock_guard lock(agg_mutex_);
        auto it = agg_scopes_.find(scope_name);
        if (it == agg_scopes_.end()) {
          throw_error(ErrorCode::kNotFound,
                      "shard router: agg scope not set up: " + scope_name);
        }
        scope = it->second;
      }
      // Homomorphic merge: the product of per-shard partial sums mod n^2 is
      // the Paillier encryption of the global sum.
      BigInt acc(1);
      std::int64_t count = 0;
      for (const auto& reply : replies) {
        const doc::Object resp = unpack(reply);
        const BigInt part = BigInt::from_bytes(get_bin(resp, "sum_ct"));
        acc = scope.mont ? acc.mul_mod(part, *scope.mont)
                         : acc.mul_mod(part, scope.n_squared);
        count += get_int(resp, "count");
      }
      return pack({{"sum_ct", Value(acc.to_bytes(scope.n_squared.byte_length()))},
                   {"count", Value(count)}});
    }
    case Merge::kCounterSum: {
      // Sum as uint64 (digests combine by wrapping sum, mirroring
      // CloudNode::state_digest's per-scope combination).
      std::uint64_t total = 0;
      for (const auto& reply : replies) {
        total += static_cast<std::uint64_t>(get_int(unpack(reply), info.sum_field));
      }
      return pack({{std::string(info.sum_field), Value(static_cast<std::int64_t>(total))}});
    }
    case Merge::kNone:
    case Merge::kFirstAck:
    case Merge::kPaillierSetup:
      break;
  }
  // Identical empty acks (plain.index, agg.setup): forward the first.
  return replies[0];
}

Bytes ShardRouter::split_batch(const Bytes& payload) {
  // Route every sub-request of the rpc.batch to its single shard, ship one
  // per-shard batch concurrently, and reassemble the sub-responses in
  // their original positions.
  const std::vector<BytesView> subs = read_batch(payload);
  std::vector<std::size_t> owner(subs.size());
  std::vector<std::size_t> slot(subs.size());  // position within the owner's batch
  std::vector<BatchWriter> shard_batches(shards_.size());
  std::vector<std::size_t> shard_counts(shards_.size(), 0);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const Request sub = Request::deserialize(subs[i]);
    owner[i] = single_shard_of(routable(sub.method), sub.payload);
    slot[i] = shard_counts[owner[i]]++;
    shard_batches[owner[i]].add(subs[i]);
  }

  std::vector<std::pair<std::size_t, Bytes>> calls;
  std::vector<std::size_t> call_shard_index;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shard_counts[s] == 0) continue;
    calls.emplace_back(s, sub_request("rpc.batch", std::move(shard_batches[s]).finish()));
    call_shard_index.push_back(s);
  }
  const std::vector<Bytes> replies = fan_out("rpc.batch", calls);

  // Per-shard response views, then original-order reassembly.
  std::vector<std::vector<BytesView>> responses(shards_.size());
  for (std::size_t k = 0; k < replies.size(); ++k) {
    const std::size_t s = call_shard_index[k];
    responses[s] = read_batch(replies[k]);
    if (responses[s].size() != shard_counts[s]) {
      throw_error(ErrorCode::kProtocolError, "shard batch: response count mismatch");
    }
  }
  BatchWriter out;
  for (std::size_t i = 0; i < subs.size(); ++i) out.add(responses[owner[i]][slot[i]]);
  return std::move(out).finish();
}

Bytes ShardRouter::call(const std::string& method, const Bytes& wire_request) {
  if (shards_.size() == 1) return call_shard(0, method, wire_request);
  const MethodInfo& info = routable(method);
  if (info.placement == Placement::kBroadcast) return broadcast(info, wire_request);
  const Request req = Request::deserialize(wire_request);
  switch (info.placement) {
    case Placement::kScatterMget: return scatter_mget(method, req.payload);
    case Placement::kScatterMitra: return scatter_mitra_search(method, req.payload);
    case Placement::kSplitBatch: return split_batch(req.payload);
    default: return route_single(single_shard_of(info, req.payload), method, wire_request);
  }
}

}  // namespace datablinder::net
