#include "sse/sophos.hpp"

#include "bigint/prime.hpp"
#include "common/status.hpp"
#include "crypto/prf.hpp"

namespace datablinder::sse {

Bytes sophos_h1(const crypto::PrfKey& kw, BytesView st_bytes) {
  return kw.prf_labeled("sophos-h1", st_bytes);
}

Bytes sophos_h2(const crypto::PrfKey& kw, BytesView st_bytes, std::size_t len) {
  Bytes input = to_bytes("sophos-h2");
  input.push_back(0);
  append(input, st_bytes);
  return kw.prf_n(input, len);
}

void SophosPublicParams::init_context() {
  if (!mont_n && n.is_odd()) mont_n = std::make_shared<const Montgomery>(n);
}

void SophosServer::apply_update(const SophosUpdateToken& token) {
  dict_.put(token.ut, token.value);
}

std::vector<DocId> SophosServer::search(const SophosSearchToken& token) const {
  std::vector<DocId> out;
  out.reserve(token.count);
  BigInt st = BigInt::from_bytes(token.st_current);
  const std::size_t elem_len = params_.element_len();
  // One HMAC key schedule for the whole chain walk instead of two per step.
  const crypto::PrfKey kw(token.kw_token);
  for (std::uint64_t i = 0; i < token.count; ++i) {
    const Bytes st_bytes = st.to_bytes(elem_len);
    const Bytes ut = sophos_h1(kw, st_bytes);
    auto value = dict_.get(ut);
    if (value) {
      Bytes payload = *value;
      xor_inplace(payload, sophos_h2(kw, st_bytes, payload.size()));
      out.emplace_back(reinterpret_cast<const char*>(payload.data()), payload.size());
    }
    // Step to the previous state with the public (forward) permutation.
    st = params_.mont_n ? st.pow_mod(params_.e, *params_.mont_n)
                        : st.pow_mod(params_.e, params_.n);
  }
  return out;
}

SophosClient::SophosClient(BytesView prf_key, std::size_t modulus_bits)
    : prf_key_(prf_key) {
  require(!prf_key.empty(), "SophosClient: empty PRF key");
  require(modulus_bits >= 128, "SophosClient: modulus too small");
  const auto [p, q] = bigint::generate_prime_pair(modulus_bits / 2);
  n_ = p * q;
  e_ = BigInt(65537);
  const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
  d_ = e_.inv_mod(phi);
  mont_n_ = std::make_shared<const Montgomery>(n_);
  q_ = q;
  d_p_ = d_.mod(p - BigInt(1));
  d_q_ = d_.mod(q - BigInt(1));
  q_inv_p_ = q.inv_mod(p);
  mont_p_ = std::make_shared<const Montgomery>(p);
  mont_q_ = std::make_shared<const Montgomery>(q);
}

SophosClient::SophosClient(const SecretBytes& prf_key, std::size_t modulus_bits)
    : SophosClient(prf_key.expose_secret(), modulus_bits) {}

SophosPublicParams SophosClient::public_params() const {
  SophosPublicParams params{n_, e_};
  params.mont_n = mont_n_;  // share the client's context with the server side
  return params;
}

BigInt SophosClient::step_back(const BigInt& st) const {
  // Garner: x = x_q + q * ((x_p - x_q) q^{-1} mod p). Exact for every st in
  // Z_n, units or not: d_p, d_q >= 1, so st = 0 mod p gives 0 on both paths.
  const BigInt xp = st.pow_mod(d_p_, *mont_p_);
  const BigInt xq = st.pow_mod(d_q_, *mont_q_);
  return xq + (xp - xq).mul_mod(q_inv_p_, *mont_p_) * q_;
}

BigInt SophosClient::step_back_generic(const BigInt& st) const {
  return st.pow_mod(d_, *mont_n_);
}

Bytes SophosClient::kw_token(const std::string& keyword) const {
  return prf_key_.prf_labeled("sophos-kw", to_bytes(keyword));
}

SophosUpdateToken SophosClient::update(const std::string& keyword, const DocId& id) {
  auto& ks = state_[keyword];
  if (ks.count == 0) {
    // Fresh keyword: random starting point in Z_n.
    ks.st = BigInt::random_below(n_);
  } else {
    // Step backwards: only the trapdoor holder can do this.
    ks.st = step_back(ks.st);
  }
  ++ks.count;

  const std::size_t elem_len = (n_.bit_length() + 7) / 8;
  const Bytes st_bytes = ks.st.to_bytes(elem_len);
  const crypto::PrfKey kt(kw_token(keyword));  // one schedule for H1 + H2

  SophosUpdateToken token;
  token.ut = sophos_h1(kt, st_bytes);
  token.value = to_bytes(id);
  xor_inplace(token.value, sophos_h2(kt, st_bytes, token.value.size()));
  return token;
}

std::optional<SophosSearchToken> SophosClient::search_token(
    const std::string& keyword) const {
  auto it = state_.find(keyword);
  if (it == state_.end()) return std::nullopt;
  SophosSearchToken token;
  token.kw_token = kw_token(keyword);
  token.st_current = it->second.st.to_bytes((n_.bit_length() + 7) / 8);
  token.count = it->second.count;
  return token;
}

}  // namespace datablinder::sse
