#include "sse/mitra_stateless.hpp"

#include "common/status.hpp"
#include "crypto/gcm.hpp"
#include "crypto/prf.hpp"

namespace datablinder::sse {

void MitraStatelessServer::put_counter(const Bytes& label, Bytes encrypted_counter) {
  counters_.put(label, std::move(encrypted_counter));
}

std::optional<Bytes> MitraStatelessServer::get_counter(const Bytes& label) const {
  return counters_.get(label);
}

MitraStatelessClient::MitraStatelessClient(BytesView key)
    : key_(key),
      counter_key_(key_.prf_labeled("mitra-sl-counter", {})) {
  require(!key.empty(), "MitraStatelessClient: empty key");
}

MitraStatelessClient::MitraStatelessClient(const SecretBytes& key)
    : MitraStatelessClient(key.expose_secret()) {}

Bytes MitraStatelessClient::counter_label(const std::string& keyword) const {
  return key_.prf_labeled("mitra-sl-slot", to_bytes(keyword));
}

std::uint64_t MitraStatelessClient::decode_counter(
    const std::string& keyword, const std::optional<Bytes>& blob) const {
  if (!blob) return 0;
  const crypto::AesGcm gcm(counter_key_);
  auto plain = gcm.open_with_nonce(*blob, to_bytes(keyword));
  if (!plain || plain->size() != 8) {
    throw_error(ErrorCode::kCryptoFailure, "mitra-stateless: bad counter blob");
  }
  return read_be64(*plain);
}

Bytes MitraStatelessClient::encode_counter(const std::string& keyword,
                                           std::uint64_t count) const {
  // Probabilistic: re-encryptions of the same count are unlinkable.
  const crypto::AesGcm gcm(counter_key_);
  return gcm.seal_random_nonce(be64(count), to_bytes(keyword));
}

MitraUpdateToken MitraStatelessClient::update(UpdateOp op, const std::string& keyword,
                                              const DocId& id,
                                              std::uint64_t current_count) const {
  const std::uint64_t c = current_count + 1;
  MitraUpdateToken token;
  CounterInput input(keyword);
  token.address = key_.prf(input.at(c, 0));
  Bytes payload;
  payload.push_back(static_cast<std::uint8_t>(op));
  append(payload, to_bytes(id));
  key_.xor_pad(input.at(c, 1), payload);
  token.value = std::move(payload);
  return token;
}

MitraSearchToken MitraStatelessClient::search_token(const std::string& keyword,
                                                    std::uint64_t count) const {
  MitraSearchToken token;
  token.addresses.reserve(count);
  CounterInput input(keyword);
  for (std::uint64_t i = 1; i <= count; ++i) {
    token.addresses.push_back(key_.prf(input.at(i, 0)));
  }
  return token;
}

std::vector<DocId> MitraStatelessClient::resolve(const std::string& keyword,
                                                 const std::vector<Bytes>& values) const {
  return resolve_stream(key_, keyword, values);
}

}  // namespace datablinder::sse
