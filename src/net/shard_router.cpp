#include "net/shard_router.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/status.hpp"
#include "doc/binary_codec.hpp"
#include "doc/value.hpp"
#include "doc/wire.hpp"
#include "net/message.hpp"

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

/// Structure-wide reads/updates that fan out to every shard and merge.
bool is_broadcast(const std::string& method) {
  return method == "doc.list" || method == "plain.index" ||
         method == "plain.find_eq" || method == "plain.find_range" ||
         method == "plain.find_bool" || method == "plain.avg" ||
         method == "agg.setup" || method == "agg.sum" ||
         method == "admin.storage" || method == "admin.index_ops" ||
         method == "admin.digest";
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

std::size_t ShardRouter::single_shard_of(const std::string& method,
                                         const Bytes& payload) const {
  const doc::Object obj = unpack(payload);
  // Documents shard by id; DET postings by keyword label; Mitra postings
  // by PRF-derived address; aggregate rows by id. Server-side structures
  // that cannot be split (OPE/ORE orderings, Sophos chains, Mitra-SL
  // counter coupling, IEX/ZMF boolean indexes) scope-route whole.
  if (method == "doc.put" || method == "doc.get" || method == "doc.del") {
    return ring_.shard_of(doc_key(get_str(obj, "col"), get_str(obj, "id")));
  }
  if (method == "plain.put") {
    const doc::Document d = doc::decode_document(get_bin(obj, "doc"));
    return ring_.shard_of(doc_key("plain:" + get_str(obj, "col"), d.id));
  }
  if (method == "plain.get" || method == "plain.del") {
    return ring_.shard_of(doc_key("plain:" + get_str(obj, "col"), get_str(obj, "id")));
  }
  if (method == "det.insert" || method == "det.remove" || method == "det.search") {
    return ring_.shard_of("det/" + get_str(obj, "col") + "/" + get_str(obj, "field") +
                          "/" + raw(get_bin(obj, "label")));
  }
  if (method == "mitra.update") {
    return ring_.shard_of("sse/" + get_str(obj, "scope") + "/" +
                          raw(get_bin(obj, "address")));
  }
  if (method == "agg.insert" || method == "agg.remove") {
    return ring_.shard_of("agg/" + get_str(obj, "scope") + "/" + get_str(obj, "id"));
  }
  const std::size_t dot = method.find('.');
  const std::string family = method.substr(0, dot == std::string::npos ? 0 : dot);
  if (family == "ope" || family == "ore") {
    return ring_.shard_of("scope/" + family + "/" + get_str(obj, "col") + "/" +
                          get_str(obj, "field"));
  }
  if (family == "mitrasl" || family == "sophos" || family == "iex" ||
      family == "zmf") {
    return ring_.shard_of("scope/" + family + "/" + get_str(obj, "scope"));
  }
  throw_error(ErrorCode::kProtocolError, "shard router: unroutable method " + method);
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

  // Positional merge: each shard answers its addresses in request order,
  // and Mitra's dictionary is append-only (deletions are delete-marker
  // entries), so every derived address 1..c resolves — a short reply
  // would silently misalign values, so it fails loudly instead.
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

Bytes ShardRouter::broadcast(const std::string& method, const Bytes& wire) {
  // agg.setup carries the Paillier public modulus: remember n^2 per scope
  // BEFORE fanning out, so a later agg.sum can merge partials even if it
  // races the setup acks.
  if (method == "agg.setup") {
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

  if (method == "doc.list") {
    doc::wire::IdsWriter ids;
    for (const auto& reply : replies) {
      for (const auto& id : doc::wire::unpack_ids(reply)) ids.add(id);
    }
    return ids.finish();
  }
  if (method == "plain.find_eq" || method == "plain.find_range" ||
      method == "plain.find_bool") {
    doc::Array docs;
    for (const auto& reply : replies) {
      const doc::Object resp = unpack(reply);
      for (const auto& d : get_arr(resp, "docs")) docs.push_back(d);
    }
    return pack({{"docs", Value(std::move(docs))}});
  }
  if (method == "plain.avg") {
    double sum = 0.0;
    std::int64_t count = 0;
    for (const auto& reply : replies) {
      const doc::Object resp = unpack(reply);
      sum += get(resp, "sum").as_double();
      count += get_int(resp, "count");
    }
    return pack({{"sum", Value(sum)}, {"count", Value(count)}});
  }
  if (method == "agg.sum") {
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
    return pack({{"sum_ct", Value(acc.to_bytes())}, {"count", Value(count)}});
  }
  if (method == "admin.storage" || method == "admin.index_ops" ||
      method == "admin.digest") {
    const char* key = method == "admin.storage"
                          ? "bytes"
                          : (method == "admin.index_ops" ? "ops" : "digest");
    // Sum as uint64 (digests combine by wrapping sum, mirroring
    // CloudNode::state_digest's per-scope combination).
    std::uint64_t total = 0;
    for (const auto& reply : replies) {
      total += static_cast<std::uint64_t>(get_int(unpack(reply), key));
    }
    return pack({{key, Value(static_cast<std::int64_t>(total))}});
  }
  // Identical empty acks (plain.index, agg.setup): forward the first.
  return replies[0];
}

Bytes ShardRouter::split_batch(const Bytes& payload) {
  // Decode the rpc.batch framing (count, then length-prefixed serialized
  // sub-requests), route every sub-request to its single shard, ship one
  // per-shard batch concurrently, and reassemble the sub-responses in
  // their original positions.
  std::size_t off = 0;
  auto take32 = [&](BytesView b) {
    if (off + 4 > b.size()) {
      throw_error(ErrorCode::kProtocolError, "shard batch: truncated");
    }
    const std::uint32_t v = read_be32(b.subspan(off));
    off += 4;
    return v;
  };
  const std::size_t n = take32(payload);
  std::vector<std::size_t> owner(n);
  std::vector<std::size_t> slot(n);  // position within the owner's batch
  std::vector<Bytes> shard_payloads(shards_.size());
  std::vector<std::size_t> shard_counts(shards_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = take32(payload);
    if (off + len > payload.size()) {
      throw_error(ErrorCode::kProtocolError, "shard batch: truncated request");
    }
    const BytesView sub_wire = BytesView(payload).subspan(off, len);
    const Request sub = Request::deserialize(sub_wire);
    off += len;
    owner[i] = single_shard_of(sub.method, sub.payload);
    slot[i] = shard_counts[owner[i]]++;
    append(shard_payloads[owner[i]], be32(static_cast<std::uint32_t>(len)));
    shard_payloads[owner[i]].insert(shard_payloads[owner[i]].end(), sub_wire.begin(),
                                    sub_wire.end());
  }

  std::vector<std::pair<std::size_t, Bytes>> calls;
  std::vector<std::size_t> call_shard_index;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shard_counts[s] == 0) continue;
    Bytes body = be32(static_cast<std::uint32_t>(shard_counts[s]));
    append(body, shard_payloads[s]);
    calls.emplace_back(s, sub_request("rpc.batch", std::move(body)));
    call_shard_index.push_back(s);
  }
  const std::vector<Bytes> replies = fan_out("rpc.batch", calls);

  // Per-shard response queues, then original-order reassembly.
  std::vector<std::vector<Bytes>> responses(shards_.size());
  for (std::size_t k = 0; k < replies.size(); ++k) {
    const Bytes& reply = replies[k];
    std::size_t roff = 0;
    auto rtake32 = [&](BytesView b) {
      if (roff + 4 > b.size()) {
        throw_error(ErrorCode::kProtocolError, "shard batch: truncated response");
      }
      const std::uint32_t v = read_be32(b.subspan(roff));
      roff += 4;
      return v;
    };
    const std::size_t count = rtake32(reply);
    const std::size_t s = call_shard_index[k];
    if (count != shard_counts[s]) {
      throw_error(ErrorCode::kProtocolError, "shard batch: response count mismatch");
    }
    responses[s].reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t len = rtake32(reply);
      if (roff + len > reply.size()) {
        throw_error(ErrorCode::kProtocolError, "shard batch: truncated response");
      }
      responses[s].emplace_back(reply.begin() + static_cast<std::ptrdiff_t>(roff),
                                reply.begin() + static_cast<std::ptrdiff_t>(roff + len));
      roff += len;
    }
  }
  Bytes out = be32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes& r = responses[owner[i]][slot[i]];
    append(out, be32(static_cast<std::uint32_t>(r.size())));
    append(out, r);
  }
  return out;
}

Bytes ShardRouter::call(const std::string& method, const Bytes& wire_request) {
  if (shards_.size() == 1) return call_shard(0, method, wire_request);
  if (method == "doc.mget" || method == "mitra.search" || method == "rpc.batch" ||
      is_broadcast(method)) {
    const Request req = Request::deserialize(wire_request);
    if (method == "doc.mget") return scatter_mget(method, req.payload);
    if (method == "mitra.search") return scatter_mitra_search(method, req.payload);
    if (method == "rpc.batch") return split_batch(req.payload);
    return broadcast(method, wire_request);
  }
  const Request req = Request::deserialize(wire_request);
  return route_single(single_shard_of(method, req.payload), method, wire_request);
}

}  // namespace datablinder::net
