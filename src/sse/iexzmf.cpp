#include "sse/iexzmf.hpp"

#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/prf.hpp"

namespace datablinder::sse {

namespace {
bool filter_test(BytesView filter, const std::vector<std::size_t>& positions) {
  for (std::size_t pos : positions) {
    if ((filter[pos / 8] & (1u << (pos % 8))) == 0) return false;
  }
  return true;
}
}  // namespace

std::vector<std::size_t> zmf_positions(const crypto::PrfKey& keyword_token, BytesView salt,
                                       const ZmfFilterParams& params) {
  std::vector<std::size_t> out;
  out.reserve(params.num_hashes);
  for (std::size_t i = 0; i < params.num_hashes; ++i) {
    Bytes input(salt.begin(), salt.end());
    append(input, be64(i));
    out.push_back(keyword_token.prf_mod(input, params.filter_bits));
  }
  return out;
}

void IexZmfServer::apply_update(const ZmfUpdateToken& token) {
  values_.put(token.address, token.value);
  Bytes stored(token.salt.begin(), token.salt.end());
  append(stored, token.filter);
  filters_.put(token.address, std::move(stored));
}

std::vector<Bytes> IexZmfServer::search(const ZmfConjToken& token) const {
  std::vector<Bytes> out;
  out.reserve(token.addresses.size());
  const std::size_t filter_len = (params_.filter_bits + 7) / 8;
  // Each keyword token keys num_hashes PRFs per candidate: one schedule each.
  std::vector<crypto::PrfKey> keyword_keys;
  keyword_keys.reserve(token.keyword_tokens.size());
  for (const auto& kt : token.keyword_tokens) keyword_keys.emplace_back(kt);
  for (const auto& addr : token.addresses) {
    auto value = values_.get(addr);
    auto stored = filters_.get(addr);
    bool pass = value.has_value() && stored.has_value() &&
                stored->size() == 16 + filter_len;
    if (pass) {
      const BytesView salt(stored->data(), 16);
      const BytesView filter(stored->data() + 16, filter_len);
      for (const auto& kk : keyword_keys) {
        if (!filter_test(filter, zmf_positions(kk, salt, params_))) {
          pass = false;
          break;
        }
      }
    }
    out.push_back(pass ? std::move(*value) : Bytes{});
  }
  return out;
}

IexZmfClient::IexZmfClient(BytesView key, ZmfFilterParams params)
    : key_(key), params_(params) {
  require(!key.empty(), "IexZmfClient: empty key");
  require(params_.filter_bits % 8 == 0 && params_.filter_bits > 0,
          "IexZmfClient: filter_bits must be a positive multiple of 8");
  require(params_.num_hashes > 0, "IexZmfClient: num_hashes must be positive");
}

IexZmfClient::IexZmfClient(const SecretBytes& key, ZmfFilterParams params)
    : IexZmfClient(key.expose_secret(), params) {}

Bytes IexZmfClient::keyword_token(const std::string& w) const {
  return key_.prf_labeled("zmf-kw", to_bytes(w));
}

std::vector<ZmfUpdateToken> IexZmfClient::update(
    IexOp op, const std::vector<std::string>& keywords, const DocId& id) {
  // Build the document's keyword filter content once per entry (fresh salt
  // each time so filters are unlinkable across entries).
  std::vector<ZmfUpdateToken> tokens;
  tokens.reserve(keywords.size());
  const std::size_t filter_len = (params_.filter_bits + 7) / 8;
  std::vector<crypto::PrfKey> keyword_keys;
  keyword_keys.reserve(keywords.size());
  for (const auto& v : keywords) keyword_keys.emplace_back(keyword_token(v));

  for (const auto& w : keywords) {
    const std::uint64_t c = counters_.increment(w);
    ZmfUpdateToken token;
    CounterInput input(w);
    token.address = key_.prf(input.at(c, 0));

    Bytes payload;
    payload.push_back(static_cast<std::uint8_t>(op));
    append(payload, to_bytes(id));
    key_.xor_pad(input.at(c, 1), payload);
    token.value = std::move(payload);

    token.salt = SecureRng::bytes(16);
    token.filter.assign(filter_len, 0);
    for (const auto& kk : keyword_keys) {
      for (std::size_t pos : zmf_positions(kk, token.salt, params_)) {
        token.filter[pos / 8] |= static_cast<std::uint8_t>(1u << (pos % 8));
      }
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

ZmfConjToken IexZmfClient::conj_token(const std::vector<std::string>& conj) const {
  require(!conj.empty(), "IexZmfClient: empty conjunction");
  ZmfConjToken token;
  const std::string& w1 = conj[0];
  const std::uint64_t c = counters_.get(w1);
  token.addresses.reserve(c);
  CounterInput input(w1);
  for (std::uint64_t i = 1; i <= c; ++i) {
    token.addresses.push_back(key_.prf(input.at(i, 0)));
  }
  for (std::size_t j = 1; j < conj.size(); ++j) {
    token.keyword_tokens.push_back(keyword_token(conj[j]));
  }
  return token;
}

std::vector<DocId> IexZmfClient::resolve_conj(const std::vector<std::string>& conj,
                                              const std::vector<Bytes>& values) const {
  const std::string& w1 = conj[0];
  std::unordered_map<DocId, bool> live;
  std::vector<DocId> order;
  CounterInput input(w1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].empty()) continue;  // filtered out or missing
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

std::vector<DocId> IexZmfClient::query(const BoolQuery& q,
                                       const IexZmfServer& server) const {
  std::vector<DocId> out;
  std::unordered_set<DocId> seen;
  for (const auto& conj : q.dnf) {
    const ZmfConjToken token = conj_token(conj);
    const auto values = server.search(token);
    for (auto& id : resolve_conj(conj, values)) {
      if (seen.insert(id).second) out.push_back(std::move(id));
    }
  }
  return out;
}

}  // namespace datablinder::sse
