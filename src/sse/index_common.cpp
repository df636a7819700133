#include "sse/index_common.hpp"

#include "common/fingerprint.hpp"
#include "common/status.hpp"

namespace datablinder::sse {

std::size_t BytesHash::operator()(const Bytes& b) const noexcept {
  // FNV-1a; labels are PRF outputs so any decent mix works.
  std::size_t h = 1469598103934665603ULL;
  for (std::uint8_t byte : b) {
    h ^= byte;
    h *= 1099511628211ULL;
  }
  return h;
}

CounterInput::CounterInput(std::string_view prefix) : buf_(to_bytes(prefix)) {
  buf_.resize(buf_.size() + 9);
}

BytesView CounterInput::at(std::uint64_t count, std::uint8_t role) {
  std::uint8_t* tail = buf_.data() + buf_.size() - 9;
  for (std::size_t i = 0; i < 8; ++i) tail[i] = static_cast<std::uint8_t>(count >> (56 - 8 * i));
  tail[8] = role;
  return buf_;
}

std::vector<DocId> resolve_stream(const crypto::PrfKey& key, std::string_view stream,
                                  const std::vector<Bytes>& values) {
  std::unordered_map<DocId, bool> live;
  std::vector<DocId> order;
  CounterInput input(stream);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].empty()) continue;
    Bytes payload = values[i];
    key.xor_pad(input.at(i + 1, 1), payload);
    const bool add = static_cast<UpdateOp>(payload[0]) == UpdateOp::kAdd;
    DocId id(reinterpret_cast<const char*>(payload.data() + 1), payload.size() - 1);
    if (add && !live.count(id)) order.push_back(id);
    live[id] = add;
  }
  std::vector<DocId> out;
  out.reserve(order.size());
  for (const auto& id : order) {
    if (live[id]) out.push_back(id);
  }
  return out;
}

void EncryptedDict::put(Bytes label, Bytes value) {
  auto it = map_.find(label);
  if (it != map_.end()) {
    storage_bytes_ -= it->second.size();
    storage_bytes_ += value.size();
    it->second = std::move(value);
  } else {
    storage_bytes_ += label.size() + value.size();
    map_.emplace(std::move(label), std::move(value));
  }
}

std::optional<Bytes> EncryptedDict::get(const Bytes& label) const {
  auto it = map_.find(label);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool EncryptedDict::erase(const Bytes& label) {
  auto it = map_.find(label);
  if (it == map_.end()) return false;
  storage_bytes_ -= it->first.size() + it->second.size();
  map_.erase(it);
  return true;
}

bool EncryptedDict::contains(const Bytes& label) const {
  return map_.find(label) != map_.end();
}

void EncryptedDict::clear() {
  map_.clear();
  storage_bytes_ = 0;
}

std::uint64_t EncryptedDict::fingerprint() const {
  // Per-entry FNV-1a hashes combined by sum: unordered_map iteration order
  // differs between byte-identical replicas, the content must not.
  std::uint64_t digest = 0;
  for (const auto& [label, value] : map_) {
    std::uint64_t h = fnv1a(kFnvOffset, label);
    h = fnv1a(h, static_cast<std::uint64_t>(value.size()));
    h = fnv1a(h, value);
    digest += h;
  }
  return digest;
}

Bytes encode_id_list(const std::vector<DocId>& ids) {
  Bytes out = be32(static_cast<std::uint32_t>(ids.size()));
  for (const auto& id : ids) {
    append(out, be32(static_cast<std::uint32_t>(id.size())));
    append(out, to_bytes(id));
  }
  return out;
}

std::vector<DocId> decode_id_list(BytesView b) {
  require(b.size() >= 4, "decode_id_list: truncated");
  const std::size_t n = read_be32(b);
  // Each entry carries a 4-byte length prefix: a forged count larger than
  // the buffer could ever hold must not drive the reserve allocation.
  require(n <= (b.size() - 4) / 4, "decode_id_list: implausible count");
  std::vector<DocId> out;
  out.reserve(n);
  std::size_t off = 4;
  for (std::size_t i = 0; i < n; ++i) {
    require(off + 4 <= b.size(), "decode_id_list: truncated entry");
    const std::size_t len = read_be32(b.subspan(off));
    off += 4;
    require(off + len <= b.size(), "decode_id_list: truncated id");
    out.emplace_back(reinterpret_cast<const char*>(b.data() + off), len);
    off += len;
  }
  return out;
}

std::uint64_t KeywordCounters::get(const std::string& w) const {
  auto it = counts_.find(w);
  return it == counts_.end() ? 0 : it->second;
}

std::uint64_t KeywordCounters::increment(const std::string& w) { return ++counts_[w]; }

Bytes KeywordCounters::serialize() const {
  Bytes out = be32(static_cast<std::uint32_t>(counts_.size()));
  for (const auto& [w, c] : counts_) {
    append(out, be32(static_cast<std::uint32_t>(w.size())));
    append(out, to_bytes(w));
    append(out, be64(c));
  }
  return out;
}

KeywordCounters KeywordCounters::deserialize(BytesView b) {
  require(b.size() >= 4, "KeywordCounters: truncated");
  const std::size_t n = read_be32(b);
  KeywordCounters out;
  std::size_t off = 4;
  for (std::size_t i = 0; i < n; ++i) {
    require(off + 4 <= b.size(), "KeywordCounters: truncated");
    const std::size_t len = read_be32(b.subspan(off));
    off += 4;
    require(off + len + 8 <= b.size(), "KeywordCounters: truncated");
    std::string w(reinterpret_cast<const char*>(b.data() + off), len);
    off += len;
    out.counts_[std::move(w)] = read_be64(b.subspan(off));
    off += 8;
  }
  return out;
}

}  // namespace datablinder::sse
