#include "sse/mitra.hpp"

#include "common/status.hpp"
#include "crypto/prf.hpp"

namespace datablinder::sse {

void MitraServer::apply_update(const MitraUpdateToken& token) {
  dict_.put(token.address, token.value);
}

std::vector<Bytes> MitraServer::search(const MitraSearchToken& token) const {
  std::vector<Bytes> out;
  out.reserve(token.addresses.size());
  for (const auto& addr : token.addresses) {
    auto v = dict_.get(addr);
    out.push_back(v ? std::move(*v) : Bytes{});
  }
  return out;
}

MitraClient::MitraClient(BytesView key) : key_(key) {
  require(!key.empty(), "MitraClient: empty key");
}

MitraClient::MitraClient(const SecretBytes& key) : MitraClient(key.expose_secret()) {}

Bytes MitraClient::address_for(const std::string& keyword, std::uint64_t count) const {
  return key_.prf(CounterInput(keyword).at(count, 0));
}

MitraUpdateToken MitraClient::update(UpdateOp op, const std::string& keyword,
                                     const DocId& id) {
  const std::uint64_t c = counters_.increment(keyword);
  MitraUpdateToken token;
  token.address = address_for(keyword, c);

  // Payload: op byte || id, XOR-padded with a PRF stream (expanded to fit).
  Bytes payload;
  payload.push_back(static_cast<std::uint8_t>(op));
  append(payload, to_bytes(id));
  key_.xor_pad(CounterInput(keyword).at(c, 1), payload);
  token.value = std::move(payload);
  return token;
}

MitraSearchToken MitraClient::search_token(const std::string& keyword) const {
  MitraSearchToken token;
  const std::uint64_t c = counters_.get(keyword);
  token.addresses.reserve(c);
  CounterInput input(keyword);
  for (std::uint64_t i = 1; i <= c; ++i) {
    token.addresses.push_back(key_.prf(input.at(i, 0)));
  }
  return token;
}

std::vector<DocId> MitraClient::resolve(const std::string& keyword,
                                        const std::vector<Bytes>& values) const {
  require(values.size() <= counters_.get(keyword),
          "MitraClient::resolve: more values than updates");
  return resolve_stream(key_, keyword, values);
}

}  // namespace datablinder::sse
