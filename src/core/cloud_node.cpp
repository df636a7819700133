#include "core/cloud_node.hpp"

#include "common/fingerprint.hpp"
#include "common/hex.hpp"
#include "common/status.hpp"
#include "core/wire.hpp"
#include "ppe/ore.hpp"

namespace datablinder::core {

using bigint::BigInt;
using doc::Array;
using doc::Object;
using doc::Value;

CloudNode::CloudNode() {
  register_doc_handlers();
  register_det_handlers();
  register_ope_handlers();
  register_ore_handlers();
  register_mitra_handlers();
  register_mitra_stateless_handlers();
  register_sophos_handlers();
  register_iex_handlers();
  register_zmf_handlers();
  register_agg_handlers();
  register_plain_handlers();
  register_admin_handlers();
}

std::size_t CloudNode::storage_bytes() const {
  std::size_t n = docs_.storage_bytes() + kv_.storage_bytes();
  // SSE server dictionaries.
  for (const auto& [scope, g] : mitra_) n += g.server->dict().storage_bytes();
  for (const auto& [scope, g] : mitra_sl_) {
    n += g.server->dict().storage_bytes() + g.server->counters().storage_bytes();
  }
  for (const auto& [scope, g] : sophos_) {
    if (g.server) n += g.server->dict().storage_bytes();
  }
  for (const auto& [scope, g] : iex_) n += g.server->dict().storage_bytes();
  for (const auto& [scope, g] : zmf_) n += g.server->storage_bytes();
  return n;
}

std::uint64_t CloudNode::state_digest() const {
  // Same traversal as storage_bytes(); per-scope digests combine by sum so
  // unordered scope-map iteration order cannot matter.
  std::uint64_t digest = docs_.fingerprint() * 3 + kv_.fingerprint();
  for (const auto& [scope, g] : mitra_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), g.server->dict().fingerprint());
  }
  for (const auto& [scope, g] : mitra_sl_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), g.server->dict().fingerprint() * 3 +
                                                  g.server->counters().fingerprint());
  }
  for (const auto& [scope, g] : sophos_) {
    if (g.server) digest += fnv1a(fnv1a(kFnvOffset, scope), g.server->dict().fingerprint());
  }
  for (const auto& [scope, g] : iex_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), g.server->dict().fingerprint());
  }
  for (const auto& [scope, g] : zmf_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), g.server->fingerprint());
  }
  for (const auto& [column, col] : agg_) {
    std::uint64_t h = fnv1a(kFnvOffset, column);
    h = fnv1a(h, col.n.to_bytes());
    std::uint64_t cts = 0;
    for (const auto& [id, ct] : col.cts) {
      cts += fnv1a(fnv1a(kFnvOffset, id), ct.to_bytes());
    }
    digest += fnv1a(h, cts);
  }
  return digest;
}

// --- encrypted documents -----------------------------------------------------

void CloudNode::register_doc_handlers() {
  rpc_.register_method("doc.put", [this](BytesView p) {
    const Object req = wire::unpack(p);
    doc::Document d;
    d.id = wire::get_str(req, "id");
    d.set("blob", Value(wire::get_bin(req, "blob")));
    docs_.collection(wire::get_str(req, "col")).put(std::move(d));
    return wire::pack({});
  });
  rpc_.register_method("doc.get", [this](BytesView p) {
    const Object req = wire::unpack(p);
    auto d = docs_.collection(wire::get_str(req, "col")).get(wire::get_str(req, "id"));
    if (!d) throw_error(ErrorCode::kNotFound, "doc.get: no such document");
    return wire::pack({{"blob", d->at("blob")}});
  });
  rpc_.register_method("doc.mget", [this](BytesView p) {
    // Batched retrieval: one round trip for a whole candidate set. The
    // response carries only the ids that still exist (in request order);
    // vanished ids are skipped, mirroring the gateway's tolerance for
    // index entries racing with deletions.
    const wire::MgetRequest req = wire::unpack_mget(p);
    wire::DocsWriter out(req.ids.size());
    docs_.collection(std::string(req.col)).visit_many(req.ids, [&](const doc::Document& d) {
      out.add(d.id, d.at("blob").as_binary());
    });
    return out.finish();
  });
  rpc_.register_method("doc.del", [this](BytesView p) {
    const Object req = wire::unpack(p);
    docs_.collection(wire::get_str(req, "col")).erase(wire::get_str(req, "id"));
    return wire::pack({});
  });
  rpc_.register_method("doc.list", [this](BytesView p) {
    const Object req = wire::unpack(p);
    wire::IdsWriter out;
    docs_.collection(wire::get_str(req, "col")).scan([&](const doc::Document& d) {
      out.add(d.id);
      return true;
    });
    return out.finish();
  });
}

// --- DET: ciphertext-equality index (KvStore sets) ---------------------------

void CloudNode::register_det_handlers() {
  auto set_key = [](const Object& req) {
    return "det:" + wire::get_str(req, "col") + ":" + wire::get_str(req, "field") + ":" +
           hex_encode(wire::get_bin(req, "label"));
  };
  rpc_.register_method("det.insert", [this, set_key](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.sadd(set_key(req), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("det.remove", [this, set_key](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.srem(set_key(req), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("det.search", [this, set_key](BytesView p) {
    const Object req = wire::unpack(p);
    wire::IdsWriter out;
    kv_.visit_members(set_key(req), [&](const std::string& id) { out.add(id); });
    ++index_ops_;
    return out.finish();
  });
}

// --- OPE: order-preserving range index (KvStore zsets) -----------------------

void CloudNode::register_ope_handlers() {
  auto zkey = [](const Object& req) {
    return "ope:" + wire::get_str(req, "col") + ":" + wire::get_str(req, "field");
  };
  rpc_.register_method("ope.insert", [this, zkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.zadd(zkey(req), wire::get_bin(req, "score"), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ope.remove", [this, zkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.zrem(zkey(req), wire::get_bin(req, "score"), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ope.range", [this, zkey](BytesView p) {
    const Object req = wire::unpack(p);
    const auto ids =
        kv_.zrange(zkey(req), wire::get_bin(req, "lo"), wire::get_bin(req, "hi"));
    ++index_ops_;
    return wire::pack_ids(ids);
  });
  rpc_.register_method("ope.extreme", [this, zkey](BytesView p) {
    // Returns the minimal or maximal (score, id) pair of the index.
    const Object req = wire::unpack(p);
    const bool want_max = wire::get_int(req, "max") != 0;
    const auto extreme = want_max ? kv_.zmax(zkey(req)) : kv_.zmin(zkey(req));
    ++index_ops_;
    if (!extreme) {
      return wire::pack({{"found", Value(false)}});
    }
    return wire::pack({{"found", Value(true)},
                       {"score", Value(extreme->first)},
                       {"id", Value(extreme->second)}});
  });
}

// --- ORE: left/right comparison scan (KvStore hashes) ------------------------

void CloudNode::register_ore_handlers() {
  auto hkey = [](const Object& req) {
    return "ore:" + wire::get_str(req, "col") + ":" + wire::get_str(req, "field");
  };
  rpc_.register_method("ore.insert", [this, hkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.hset(hkey(req), wire::get_str(req, "id"), wire::get_bin(req, "right"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ore.remove", [this, hkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.hdel(hkey(req), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ore.range", [this, hkey](BytesView p) {
    // Linear scan comparing each stored right ciphertext against the two
    // left endpoint tokens: lo <= y <= hi.
    const Object req = wire::unpack(p);
    const auto left_lo = ppe::OreLeft::deserialize(wire::get_bin(req, "left_lo"));
    const auto left_hi = ppe::OreLeft::deserialize(wire::get_bin(req, "left_hi"));
    std::vector<std::string> ids;
    for (const auto& [id, right_bytes] : kv_.hgetall(hkey(req))) {
      const auto right = ppe::OreRight::deserialize(right_bytes);
      const auto lo_cmp = ppe::OreCipher::compare(left_lo, right);
      const auto hi_cmp = ppe::OreCipher::compare(left_hi, right);
      ++index_ops_;
      const bool ge_lo = lo_cmp != ppe::OreResult::kGreater;  // lo <= y
      const bool le_hi = hi_cmp != ppe::OreResult::kLess;     // hi >= y
      if (ge_lo && le_hi) ids.push_back(id);
    }
    return wire::pack_ids(ids);
  });
}

// --- Mitra --------------------------------------------------------------------

namespace {

// The request's address list, in order.
std::vector<Bytes> addresses_of(const Object& req) {
  std::vector<Bytes> addresses;
  for (const auto& a : wire::get_arr(req, "addresses")) addresses.push_back(a.as_binary());
  return addresses;
}

// One entry per searched address, empty for a miss.
Bytes pack_values(const std::vector<Bytes>& values) {
  Array arr;
  arr.reserve(values.size());
  for (const auto& v : values) arr.emplace_back(v);
  return wire::pack({{"values", Value(std::move(arr))}});
}

}  // namespace

void CloudNode::register_mitra_handlers() {
  rpc_.register_method("mitra.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    const sse::MitraUpdateToken token{wire::get_bin(req, "address"),
                                      wire::get_bin(req, "value")};
    auto& g = guarded(mitra_, wire::get_str(req, "scope"));
    g.update([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("mitra.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    const sse::MitraSearchToken token{addresses_of(req)};
    index_ops_ += token.addresses.size();
    auto& g = guarded(mitra_, wire::get_str(req, "scope"));
    return pack_values(g.search([&](const auto& s) { return s.search(token); }));
  });
}

// --- Mitra-Stateless ------------------------------------------------------------
//
// Two extra methods versus plain Mitra: the encrypted keyword-counter slot
// lives server-side so the gateway keeps no state at all.

void CloudNode::register_mitra_stateless_handlers() {
  rpc_.register_method("mitrasl.get_counter", [this](BytesView p) {
    const Object req = wire::unpack(p);
    auto& g = guarded(mitra_sl_, wire::get_str(req, "scope"));
    auto blob = g.search([&](const auto& s) {
      return s.get_counter(wire::get_bin(req, "label"));
    });
    ++index_ops_;
    Object out;
    out["found"] = Value(blob.has_value());
    if (blob) out["blob"] = Value(std::move(*blob));
    return wire::pack(std::move(out));
  });
  rpc_.register_method("mitrasl.update", [this](BytesView p) {
    // Atomic second round: store the new counter blob and the new entry.
    const Object req = wire::unpack(p);
    const sse::MitraUpdateToken token{wire::get_bin(req, "address"),
                                      wire::get_bin(req, "value")};
    guarded(mitra_sl_, wire::get_str(req, "scope")).update([&](auto& s) {
      s.put_counter(wire::get_bin(req, "label"), wire::get_bin(req, "counter"));
      s.apply_update(token);
    });
    index_ops_ += 2;
    return wire::pack({});
  });
  rpc_.register_method("mitrasl.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    const sse::MitraSearchToken token{addresses_of(req)};
    index_ops_ += token.addresses.size();
    auto& g = guarded(mitra_sl_, wire::get_str(req, "scope"));
    return pack_values(g.search([&](const auto& s) { return s.search(token); }));
  });
}

// --- Sophos --------------------------------------------------------------------

void CloudNode::register_sophos_handlers() {
  rpc_.register_method("sophos.setup", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::SophosPublicParams params;
    params.n = BigInt::from_bytes(wire::get_bin(req, "n"));
    params.e = BigInt::from_bytes(wire::get_bin(req, "e"));
    params.init_context();  // one Montgomery context for every future search
    auto& g = guarded(sophos_, wire::get_str(req, "scope"));
    std::unique_lock lock(g.mutex);
    g.server = std::make_unique<sse::SophosServer>(std::move(params));
    return wire::pack({});
  });
  rpc_.register_method("sophos.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    const sse::SophosUpdateToken token{wire::get_bin(req, "ut"), wire::get_bin(req, "value")};
    auto& g = guarded(sophos_, wire::get_str(req, "scope"));
    g.update([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("sophos.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::SophosSearchToken token;
    token.kw_token = wire::get_bin(req, "kw_token");
    token.st_current = wire::get_bin(req, "st");
    token.count = static_cast<std::uint64_t>(wire::get_int(req, "count"));
    auto& g = guarded(sophos_, wire::get_str(req, "scope"));
    const auto ids = g.search([&](const auto& s) { return s.search(token); });
    index_ops_ += token.count;
    return wire::pack_ids(ids);
  });
}

// --- IEX-2Lev -------------------------------------------------------------------

void CloudNode::register_iex_handlers() {
  rpc_.register_method("iex.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    const sse::IexUpdateToken token{wire::get_bin(req, "address"), wire::get_bin(req, "value")};
    auto& g = guarded(iex_, wire::get_str(req, "scope"));
    g.update([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("iex.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::IexConjToken token;
    for (const auto& list : wire::get_arr(req, "lists")) {
      std::vector<Bytes> addresses;
      for (const auto& a : list.as_array()) addresses.push_back(a.as_binary());
      index_ops_ += addresses.size();
      token.lists.push_back(std::move(addresses));
    }
    auto& g = guarded(iex_, wire::get_str(req, "scope"));
    const auto lists = g.search([&](const auto& s) { return s.search(token); });
    Array out;
    for (const auto& values : lists) {
      Array inner;
      inner.reserve(values.size());
      for (const auto& v : values) inner.emplace_back(v);
      out.emplace_back(std::move(inner));
    }
    return wire::pack({{"lists", Value(std::move(out))}});
  });
}

// --- IEX-ZMF --------------------------------------------------------------------

void CloudNode::register_zmf_handlers() {
  rpc_.register_method("zmf.setup", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::ZmfFilterParams params;
    params.filter_bits = static_cast<std::size_t>(wire::get_int(req, "filter_bits"));
    params.num_hashes = static_cast<std::size_t>(wire::get_int(req, "num_hashes"));
    guarded(zmf_, wire::get_str(req, "scope"), params);
    return wire::pack({});
  });
  rpc_.register_method("zmf.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::ZmfUpdateToken token;
    token.address = wire::get_bin(req, "address");
    token.value = wire::get_bin(req, "value");
    token.salt = wire::get_bin(req, "salt");
    token.filter = wire::get_bin(req, "filter");
    auto& g = guarded(zmf_, wire::get_str(req, "scope"));
    g.update([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("zmf.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::ZmfConjToken token;
    token.addresses = addresses_of(req);
    for (const auto& t : wire::get_arr(req, "tokens")) {
      token.keyword_tokens.push_back(t.as_binary());
    }
    index_ops_ += token.addresses.size();
    auto& g = guarded(zmf_, wire::get_str(req, "scope"));
    return pack_values(g.search([&](const auto& s) { return s.search(token); }));
  });
}

// --- Paillier aggregates ----------------------------------------------------------

BigInt CloudNode::AggColumn::mul(const BigInt& a, const BigInt& b) const {
  return mont_n2 ? a.mul_mod(b, *mont_n2) : a.mul_mod(b, n_squared);
}

void CloudNode::AggColumn::refold() {
  inserted = BigInt(1);  // multiplicative identity in Z_{n^2}: Enc-domain zero sum
  for (const auto& [id, ct] : cts) inserted = mul(inserted, ct);
  removed = BigInt(1);
}

const BigInt& CloudNode::AggColumn::sum() {
  if (removed != BigInt(1)) {
    // Only a ciphertext sharing a factor with n (never an honest one) can
    // make `removed` non-invertible; folding `cts` is then the exact answer.
    try {
      inserted = mul(inserted, removed.inv_mod(n_squared));
      removed = BigInt(1);
    } catch (const Error&) {
      refold();
    }
  }
  return inserted;
}

void CloudNode::register_agg_handlers() {
  rpc_.register_method("agg.setup", [this](BytesView p) {
    const Object req = wire::unpack(p);
    std::lock_guard lock(agg_mutex_);
    AggColumn& col = agg_[wire::get_str(req, "scope")];
    col.n = BigInt::from_bytes(wire::get_bin(req, "n"));
    col.n_squared = col.n * col.n;
    col.mont_n2 = col.n_squared.is_odd()
                      ? std::make_shared<const bigint::Montgomery>(col.n_squared)
                      : nullptr;
    col.refold();  // a repeated setup may change n: rebuild under the new n^2
    return wire::pack({});
  });
  rpc_.register_method("agg.insert", [this](BytesView p) {
    const Object req = wire::unpack(p);
    std::lock_guard lock(agg_mutex_);
    auto it = agg_.find(wire::get_str(req, "scope"));
    if (it == agg_.end()) throw_error(ErrorCode::kNotFound, "agg: scope not set up");
    AggColumn& col = it->second;
    BigInt ct = BigInt::from_bytes(wire::get_bin(req, "ct"));
    col.inserted = col.mul(col.inserted, ct);
    auto [slot, fresh] = col.cts.try_emplace(wire::get_str(req, "id"));
    // An overwrite or a journal replay retires the ciphertext it replaces.
    if (!fresh) col.removed = col.mul(col.removed, slot->second);
    slot->second = std::move(ct);
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("agg.remove", [this](BytesView p) {
    const Object req = wire::unpack(p);
    std::lock_guard lock(agg_mutex_);
    auto it = agg_.find(wire::get_str(req, "scope"));
    if (it != agg_.end()) {
      AggColumn& col = it->second;
      auto found = col.cts.find(wire::get_str(req, "id"));
      if (found != col.cts.end()) {
        col.removed = col.mul(col.removed, found->second);
        col.cts.erase(found);
      }
    }
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("agg.sum", [this](BytesView p) {
    // Homomorphic sum over the whole column (AggFunction, cloud side).
    const Object req = wire::unpack(p);
    std::lock_guard lock(agg_mutex_);
    auto it = agg_.find(wire::get_str(req, "scope"));
    if (it == agg_.end()) throw_error(ErrorCode::kNotFound, "agg: scope not set up");
    AggColumn& col = it->second;
    const std::uint64_t count = col.cts.size();
    index_ops_ += count;  // a sum still counts the ciphertexts it covers
    return wire::pack({{"sum_ct", Value(col.sum().to_bytes(col.n_squared.byte_length()))},
                       {"count", Value(static_cast<std::int64_t>(count))}});
  });
}

// --- plaintext baseline (S_A) --------------------------------------------------

void CloudNode::register_plain_handlers() {
  auto col_name = [](const Object& req) { return "plain:" + wire::get_str(req, "col"); };
  // Applies one document's values to the collection's tracked averages.
  // Called with plain_mutex_ held.
  auto track = [this](const std::string& col, const doc::Document& d, int sign) {
    const auto sums = plain_sums_.find(col);
    if (sums == plain_sums_.end()) return;
    for (auto& [field, total] : sums->second) total.add(d, field, sign);
  };
  auto untrack_stored = [this, track](const std::string& col, const std::string& id) {
    docs_.collection(col).visit_many({id}, [&](const doc::Document& old) { track(col, old, -1); });
  };
  rpc_.register_method("plain.put", [this, col_name, track, untrack_stored](BytesView p) {
    const Object req = wire::unpack(p);
    const std::string name = col_name(req);
    doc::Document d = doc::decode_document(wire::get_bin(req, "doc"));
    require(!d.id.empty(), "plain.put: empty id");
    std::lock_guard lock(plain_mutex_);
    untrack_stored(name, d.id);
    track(name, d, +1);
    docs_.collection(name).put(std::move(d));
    return wire::pack({});
  });
  rpc_.register_method("plain.index", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    docs_.collection(col_name(req)).create_index(wire::get_str(req, "field"));
    return wire::pack({});
  });
  rpc_.register_method("plain.get", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    auto d = docs_.collection(col_name(req)).get(wire::get_str(req, "id"));
    if (!d) throw_error(ErrorCode::kNotFound, "plain.get: no such document");
    return wire::pack({{"doc", Value(doc::encode_document(*d))}});
  });
  rpc_.register_method("plain.del", [this, col_name, untrack_stored](BytesView p) {
    const Object req = wire::unpack(p);
    const std::string name = col_name(req);
    const std::string id = wire::get_str(req, "id");
    std::lock_guard lock(plain_mutex_);
    untrack_stored(name, id);
    docs_.collection(name).erase(id);
    return wire::pack({});
  });
  auto docs_to_value = [](const std::vector<doc::Document>& found) {
    Array arr;
    arr.reserve(found.size());
    for (const auto& d : found) arr.emplace_back(doc::encode_document(d));
    return Value(std::move(arr));
  };
  rpc_.register_method("plain.find_eq", [this, col_name, docs_to_value](BytesView p) {
    const Object req = wire::unpack(p);
    const auto found = docs_.collection(col_name(req))
                           .find(store::Filter::eq(wire::get_str(req, "field"),
                                                   wire::get(req, "value")));
    return wire::pack({{"docs", docs_to_value(found)}});
  });
  rpc_.register_method("plain.find_range", [this, col_name, docs_to_value](BytesView p) {
    const Object req = wire::unpack(p);
    const auto found = docs_.collection(col_name(req))
                           .find(store::Filter::range(wire::get_str(req, "field"),
                                                      wire::get(req, "lo"),
                                                      wire::get(req, "hi")));
    return wire::pack({{"docs", docs_to_value(found)}});
  });
  rpc_.register_method("plain.find_bool", [this, col_name, docs_to_value](BytesView p) {
    // DNF: array of conjunctions; each conjunction is an array of
    // {field, value} objects.
    const Object req = wire::unpack(p);
    std::vector<store::Filter> disjuncts;
    for (const auto& conj : wire::get_arr(req, "dnf")) {
      std::vector<store::Filter> terms;
      for (const auto& term : conj.as_array()) {
        const Object& t = term.as_object();
        terms.push_back(store::Filter::eq(wire::get_str(t, "field"),
                                          wire::get(t, "value")));
      }
      disjuncts.push_back(store::Filter::and_of(std::move(terms)));
    }
    const auto found =
        docs_.collection(col_name(req)).find(store::Filter::or_of(std::move(disjuncts)));
    return wire::pack({{"docs", docs_to_value(found)}});
  });
  rpc_.register_method("plain.avg", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    const std::string name = col_name(req);
    const std::string field = wire::get_str(req, "field");
    std::lock_guard lock(plain_mutex_);
    const auto [it, first] = plain_sums_[name].try_emplace(field);
    PlainSum& total = it->second;
    if (first) {
      docs_.collection(name).scan([&](const doc::Document& d) {
        total.add(d, field, +1);
        return true;
      });
    }
    return wire::pack({{"sum", Value(total.sum)}, {"count", Value(total.count)}});
  });
}

void CloudNode::PlainSum::add(const doc::Document& d, const std::string& field, int sign) {
  if (!d.has(field)) return;
  const Value& v = d.at(field);
  if (v.type() != doc::ValueType::kInt && v.type() != doc::ValueType::kDouble) return;
  sum += sign * v.as_double();
  count += sign;
}

// --- admin / observability -------------------------------------------------------

void CloudNode::register_admin_handlers() {
  // One-round-trip batch execution of queued fire-and-forget updates.
  rpc_.register_method("rpc.batch", net::RpcClient::make_batch_handler(rpc_));
  rpc_.register_method("admin.storage", [this](BytesView) {
    return wire::pack(
        {{"bytes", Value(static_cast<std::int64_t>(storage_bytes()))}});
  });
  rpc_.register_method("admin.index_ops", [this](BytesView) {
    return wire::pack(
        {{"ops", Value(static_cast<std::int64_t>(index_ops_.load()))}});
  });
  rpc_.register_method("admin.digest", [this](BytesView) {
    return wire::pack(
        {{"digest", Value(static_cast<std::int64_t>(state_digest()))}});
  });
}

}  // namespace datablinder::core
