#include "store/kvstore.hpp"

#include "common/fingerprint.hpp"
#include "common/status.hpp"

namespace datablinder::store {

enum class KvStore::OpCode : std::uint8_t {
  kSet = 1,
  kDel = 2,
  kHset = 3,
  kHdel = 4,
  kSadd = 5,
  kSrem = 6,
  kZadd = 7,
  kZrem = 8,
  kIncr = 9,
  kFlush = 10,
};

KvStore::KvStore(const std::string& aof_path) : aof_path_(aof_path) {
  replay(aof_path);
  aof_ = std::fopen(aof_path.c_str(), "ab");
  if (aof_ == nullptr) {
    throw_error(ErrorCode::kUnavailable, "KvStore: cannot open AOF " + aof_path);
  }
}

KvStore::~KvStore() {
  if (aof_ != nullptr) std::fclose(aof_);
}

void KvStore::log_op(OpCode op, const std::vector<Bytes>& args) {
  if (aof_ == nullptr || replaying_) return;
  // Record: opcode byte, arg count, then length-prefixed args.
  Bytes rec;
  rec.push_back(static_cast<std::uint8_t>(op));
  append(rec, be32(static_cast<std::uint32_t>(args.size())));
  for (const auto& a : args) {
    append(rec, be32(static_cast<std::uint32_t>(a.size())));
    append(rec, a);
  }
  if (std::fwrite(rec.data(), 1, rec.size(), aof_) != rec.size()) {
    // Semi-persistent writes are buffered and not individually checked;
    // remember the short write so the next durability point (sync())
    // reports it instead of silently losing the record.
    aof_write_failed_ = true;
  }
  // Semi-persistent mode: no fsync per op (matches the paper's Redis config).
}

void KvStore::replay(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;  // fresh store
  // Replay runs from the constructor, before the store is published to any
  // other thread — the lock is not needed for correctness, but holding it
  // keeps every mutation of the table state under mutex_ so the locking
  // contract is uniform (and statically checkable).
  std::lock_guard lock(mutex_);
  replaying_ = true;
  auto read_exact = [&](std::uint8_t* buf, std::size_t n) {
    return std::fread(buf, 1, n, f) == n;
  };
  for (;;) {
    std::uint8_t op_byte;
    if (!read_exact(&op_byte, 1)) break;
    std::uint8_t cnt_buf[4];
    if (!read_exact(cnt_buf, 4)) break;
    const std::size_t argc = read_be32({cnt_buf, 4});
    std::vector<Bytes> args(argc);
    bool ok = true;
    for (auto& a : args) {
      std::uint8_t len_buf[4];
      if (!read_exact(len_buf, 4)) { ok = false; break; }
      a.resize(read_be32({len_buf, 4}));
      if (!a.empty() && !read_exact(a.data(), a.size())) { ok = false; break; }
    }
    if (!ok) break;  // torn tail record: semi-persistent semantics accept loss
    apply(static_cast<OpCode>(op_byte), args);
  }
  std::fclose(f);
  replaying_ = false;
}

void KvStore::apply(OpCode op, const std::vector<Bytes>& args) {
  auto s = [](const Bytes& b) { return datablinder::to_string(b); };
  switch (op) {
    case OpCode::kSet: strings_[s(args[0])] = args[1]; break;
    case OpCode::kDel: strings_.erase(s(args[0])); break;
    case OpCode::kHset: hashes_[s(args[0])][s(args[1])] = args[2]; break;
    case OpCode::kHdel: {
      auto it = hashes_.find(s(args[0]));
      if (it != hashes_.end()) it->second.erase(s(args[1]));
      break;
    }
    case OpCode::kSadd: sets_[s(args[0])].insert(s(args[1])); break;
    case OpCode::kSrem: {
      auto it = sets_.find(s(args[0]));
      if (it != sets_.end()) it->second.erase(s(args[1]));
      break;
    }
    case OpCode::kZadd: zsets_[s(args[0])][args[1]].insert(s(args[2])); break;
    case OpCode::kZrem: {
      auto it = zsets_.find(s(args[0]));
      if (it != zsets_.end()) {
        auto jt = it->second.find(args[1]);
        if (jt != it->second.end()) {
          jt->second.erase(s(args[2]));
          if (jt->second.empty()) it->second.erase(jt);
        }
      }
      break;
    }
    case OpCode::kIncr:
      counters_[s(args[0])] += static_cast<std::int64_t>(read_be64(args[1]));
      break;
    case OpCode::kFlush:
      strings_.clear();
      hashes_.clear();
      sets_.clear();
      zsets_.clear();
      counters_.clear();
      break;
  }
}

Status KvStore::sync() {
  std::lock_guard lock(mutex_);
  if (aof_ == nullptr) return Status::OK();  // in-memory store: nothing to land
  if (std::fflush(aof_) != 0) aof_write_failed_ = true;
  if (aof_write_failed_) {
    return Status::Failure(ErrorCode::kUnavailable,
                           "KvStore: AOF write/flush failed for " + aof_path_ +
                               "; durability of buffered records is not assured");
  }
  return Status::OK();
}

void KvStore::set(const std::string& key, Bytes value) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kSet, {to_bytes(key), value});
  strings_[key] = std::move(value);
}

std::optional<Bytes> KvStore::get(const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = strings_.find(key);
  if (it == strings_.end()) return std::nullopt;
  return it->second;
}

bool KvStore::del(const std::string& key) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kDel, {to_bytes(key)});
  return strings_.erase(key) > 0;
}

bool KvStore::exists(const std::string& key) const {
  std::lock_guard lock(mutex_);
  return strings_.count(key) > 0;
}

void KvStore::hset(const std::string& key, const std::string& field, Bytes value) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kHset, {to_bytes(key), to_bytes(field), value});
  hashes_[key][field] = std::move(value);
}

std::optional<Bytes> KvStore::hget(const std::string& key, const std::string& field) const {
  std::lock_guard lock(mutex_);
  auto it = hashes_.find(key);
  if (it == hashes_.end()) return std::nullopt;
  auto jt = it->second.find(field);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

bool KvStore::hdel(const std::string& key, const std::string& field) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kHdel, {to_bytes(key), to_bytes(field)});
  auto it = hashes_.find(key);
  if (it == hashes_.end()) return false;
  return it->second.erase(field) > 0;
}

std::map<std::string, Bytes> KvStore::hgetall(const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = hashes_.find(key);
  if (it == hashes_.end()) return {};
  return it->second;
}

void KvStore::sadd(const std::string& key, const std::string& member) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kSadd, {to_bytes(key), to_bytes(member)});
  sets_[key].insert(member);
}

bool KvStore::srem(const std::string& key, const std::string& member) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kSrem, {to_bytes(key), to_bytes(member)});
  auto it = sets_.find(key);
  if (it == sets_.end()) return false;
  return it->second.erase(member) > 0;
}

void KvStore::visit_members(const std::string& key,
                            const std::function<void(const std::string&)>& visit) const {
  std::lock_guard lock(mutex_);
  auto it = sets_.find(key);
  if (it == sets_.end()) return;
  for (const auto& member : it->second) visit(member);
}

std::size_t KvStore::scard(const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = sets_.find(key);
  return it == sets_.end() ? 0 : it->second.size();
}

void KvStore::zadd(const std::string& key, const Bytes& score, const std::string& member) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kZadd, {to_bytes(key), score, to_bytes(member)});
  zsets_[key][score].insert(member);
}

bool KvStore::zrem(const std::string& key, const Bytes& score, const std::string& member) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kZrem, {to_bytes(key), score, to_bytes(member)});
  auto it = zsets_.find(key);
  if (it == zsets_.end()) return false;
  auto jt = it->second.find(score);
  if (jt == it->second.end()) return false;
  const bool erased = jt->second.erase(member) > 0;
  if (jt->second.empty()) it->second.erase(jt);
  return erased;
}

std::vector<std::string> KvStore::zrange(const std::string& key, const Bytes& lo,
                                         const Bytes& hi) const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  auto it = zsets_.find(key);
  if (it == zsets_.end()) return out;
  for (auto jt = it->second.lower_bound(lo);
       jt != it->second.end() && jt->first <= hi; ++jt) {
    out.insert(out.end(), jt->second.begin(), jt->second.end());
  }
  return out;
}

std::optional<std::pair<Bytes, std::string>> KvStore::zmin(const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = zsets_.find(key);
  if (it == zsets_.end() || it->second.empty()) return std::nullopt;
  const auto& [score, members] = *it->second.begin();
  return std::make_pair(score, *members.begin());
}

std::optional<std::pair<Bytes, std::string>> KvStore::zmax(const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = zsets_.find(key);
  if (it == zsets_.end() || it->second.empty()) return std::nullopt;
  const auto& [score, members] = *it->second.rbegin();
  return std::make_pair(score, *members.rbegin());
}

std::size_t KvStore::zcard(const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = zsets_.find(key);
  if (it == zsets_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [score, members] : it->second) n += members.size();
  return n;
}

std::int64_t KvStore::incr(const std::string& key, std::int64_t delta) {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kIncr, {to_bytes(key), be64(static_cast<std::uint64_t>(delta))});
  return counters_[key] += delta;
}

std::size_t KvStore::storage_bytes() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [k, v] : strings_) n += k.size() + v.size();
  for (const auto& [k, h] : hashes_) {
    n += k.size();
    for (const auto& [f, v] : h) n += f.size() + v.size();
  }
  for (const auto& [k, s] : sets_) {
    n += k.size();
    for (const auto& m : s) n += m.size();
  }
  for (const auto& [k, z] : zsets_) {
    n += k.size();
    for (const auto& [score, members] : z) {
      n += score.size();
      for (const auto& m : members) n += m.size();
    }
  }
  n += counters_.size() * 16;
  return n;
}

std::uint64_t KvStore::fingerprint() const {
  std::lock_guard lock(mutex_);
  // Top-level maps are unordered: hash each key's full entry and combine
  // by sum, tagging each structure family so a string and a same-named
  // counter can never cancel out.
  std::uint64_t digest = 0;
  for (const auto& [k, v] : strings_) {
    std::uint64_t h = fnv1a(kFnvOffset, std::string("str"));
    h = fnv1a(fnv1a(h, k), v);
    digest += h;
  }
  for (const auto& [k, hash] : hashes_) {
    std::uint64_t h = fnv1a(kFnvOffset, std::string("hash"));
    h = fnv1a(h, k);
    for (const auto& [f, v] : hash) h = fnv1a(fnv1a(h, f), v);  // ordered map
    digest += h;
  }
  for (const auto& [k, set] : sets_) {
    std::uint64_t h = fnv1a(kFnvOffset, std::string("set"));
    h = fnv1a(h, k);
    for (const auto& m : set) h = fnv1a(h, m);  // ordered set
    digest += h;
  }
  for (const auto& [k, z] : zsets_) {
    std::uint64_t h = fnv1a(kFnvOffset, std::string("zset"));
    h = fnv1a(h, k);
    for (const auto& [score, members] : z) {
      h = fnv1a(h, score);
      for (const auto& m : members) h = fnv1a(h, m);
    }
    digest += h;
  }
  for (const auto& [k, c] : counters_) {
    std::uint64_t h = fnv1a(kFnvOffset, std::string("ctr"));
    h = fnv1a(fnv1a(h, k), static_cast<std::uint64_t>(c));
    digest += h;
  }
  return digest;
}

void KvStore::flush_all() {
  std::lock_guard lock(mutex_);
  log_op(OpCode::kFlush, {});
  strings_.clear();
  hashes_.clear();
  sets_.clear();
  zsets_.clear();
  counters_.clear();
}

}  // namespace datablinder::store
