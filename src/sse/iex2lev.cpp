#include "sse/iex2lev.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/status.hpp"
#include "crypto/prf.hpp"

namespace datablinder::sse {

void Iex2LevServer::apply_update(const IexUpdateToken& token) {
  dict_.put(token.address, token.value);
}

std::vector<std::vector<Bytes>> Iex2LevServer::search(const IexConjToken& token) const {
  std::vector<std::vector<Bytes>> out;
  out.reserve(token.lists.size());
  for (const auto& addresses : token.lists) {
    std::vector<Bytes> values;
    values.reserve(addresses.size());
    for (const auto& addr : addresses) {
      auto v = dict_.get(addr);
      // Preserve positional alignment: a miss yields an empty placeholder.
      values.push_back(v ? std::move(*v) : Bytes{});
    }
    out.push_back(std::move(values));
  }
  return out;
}

Iex2LevClient::Iex2LevClient(BytesView key) : key_(key) {
  require(!key.empty(), "Iex2LevClient: empty key");
}

Iex2LevClient::Iex2LevClient(const SecretBytes& key)
    : Iex2LevClient(key.expose_secret()) {}

std::string Iex2LevClient::global_stream(const std::string& w) { return "g\x01" + w; }

std::string Iex2LevClient::pair_stream(const std::string& w, const std::string& v) {
  return "p\x01" + w + "\x01" + v;
}

IexUpdateToken Iex2LevClient::make_token(IexOp op, const std::string& stream,
                                         std::uint64_t count, const DocId& id) const {
  IexUpdateToken token;
  CounterInput input(stream);
  token.address = key_.prf(input.at(count, 0));
  Bytes payload;
  payload.push_back(static_cast<std::uint8_t>(op));
  append(payload, to_bytes(id));
  key_.xor_pad(input.at(count, 1), payload);
  token.value = std::move(payload);
  return token;
}

std::vector<IexUpdateToken> Iex2LevClient::update(
    IexOp op, const std::vector<std::string>& keywords, const DocId& id) {
  std::vector<IexUpdateToken> tokens;
  // One global entry per keyword; one local entry per ordered pair. The
  // pair expansion is the 2Lev space cost the paper's Table 2 calls out.
  tokens.reserve(keywords.size() * keywords.size());
  for (const auto& w : keywords) {
    const std::string gs = global_stream(w);
    tokens.push_back(make_token(op, gs, counters_.increment(gs), id));
    for (const auto& v : keywords) {
      if (v == w) continue;
      const std::string ps = pair_stream(w, v);
      tokens.push_back(make_token(op, ps, counters_.increment(ps), id));
    }
  }
  return tokens;
}

IexConjToken Iex2LevClient::conj_token(const std::vector<std::string>& conj) const {
  require(!conj.empty(), "Iex2LevClient: empty conjunction");
  IexConjToken token;
  auto addresses_for = [&](const std::string& stream) {
    std::vector<Bytes> addrs;
    const std::uint64_t c = counters_.get(stream);
    addrs.reserve(c);
    CounterInput input(stream);
    for (std::uint64_t i = 1; i <= c; ++i) {
      addrs.push_back(key_.prf(input.at(i, 0)));
    }
    return addrs;
  };
  token.lists.push_back(addresses_for(global_stream(conj[0])));
  for (std::size_t j = 1; j < conj.size(); ++j) {
    token.lists.push_back(addresses_for(pair_stream(conj[0], conj[j])));
  }
  return token;
}

std::vector<DocId> Iex2LevClient::resolve_stream(const std::string& stream,
                                                 const std::vector<Bytes>& values) const {
  std::unordered_map<DocId, bool> live;
  std::vector<DocId> order;
  CounterInput input(stream);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].empty()) continue;  // positional placeholder for a miss
    Bytes payload = values[i];
    key_.xor_pad(input.at(i + 1, 1), payload);
    const auto op = static_cast<IexOp>(payload[0]);
    DocId id(reinterpret_cast<const char*>(payload.data() + 1), payload.size() - 1);
    if (op == IexOp::kAdd) {
      if (!live.count(id)) order.push_back(id);
      live[id] = true;
    } else {
      live[id] = false;
    }
  }
  std::vector<DocId> out;
  for (const auto& id : order) {
    if (live[id]) out.push_back(id);
  }
  return out;
}

std::vector<DocId> Iex2LevClient::resolve_conj(
    const std::vector<std::string>& conj,
    const std::vector<std::vector<Bytes>>& lists) const {
  require(lists.size() == conj.size(), "Iex2LevClient::resolve_conj: arity mismatch");
  std::vector<DocId> result = resolve_stream(global_stream(conj[0]), lists[0]);
  for (std::size_t j = 1; j < conj.size(); ++j) {
    const std::vector<DocId> pair_ids =
        resolve_stream(pair_stream(conj[0], conj[j]), lists[j]);
    const std::unordered_set<DocId> keep(pair_ids.begin(), pair_ids.end());
    std::erase_if(result, [&](const DocId& id) { return !keep.count(id); });
  }
  return result;
}

std::vector<DocId> Iex2LevClient::query(const BoolQuery& q,
                                        const Iex2LevServer& server) const {
  std::vector<DocId> out;
  std::unordered_set<DocId> seen;
  for (const auto& conj : q.dnf) {
    const IexConjToken token = conj_token(conj);
    const auto lists = server.search(token);
    for (auto& id : resolve_conj(conj, lists)) {
      if (seen.insert(id).second) out.push_back(std::move(id));
    }
  }
  return out;
}

Bytes Iex2LevClient::export_state() const { return counters_.serialize(); }

void Iex2LevClient::import_state(BytesView b) {
  counters_ = KeywordCounters::deserialize(b);
}

}  // namespace datablinder::sse
