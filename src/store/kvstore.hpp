// KvStore — the Redis-role substrate.
//
// The paper deploys Redis "in a semi-persistent durability mode" on both
// the gateway and the cloud to host custom secure indexes. This store
// offers the same building blocks: string keys, hashes, sets, counters and
// ordered maps (sorted sets keyed by byte strings — used by the OPE range
// index), plus an optional append-only persistence log replayed on open.
//
// Thread-safe: a single mutex guards all state (matching a single Redis
// instance's serialized command execution).
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace datablinder::store {

class KvStore {
 public:
  /// Pure in-memory store.
  KvStore() = default;

  /// Semi-persistent mode: replays `aof_path` if it exists, then appends
  /// every mutation to it.
  explicit KvStore(const std::string& aof_path);

  ~KvStore();
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // --- string keys -------------------------------------------------------
  void set(const std::string& key, Bytes value);
  std::optional<Bytes> get(const std::string& key) const;
  bool del(const std::string& key);
  bool exists(const std::string& key) const;

  // --- hashes ------------------------------------------------------------
  void hset(const std::string& key, const std::string& field, Bytes value);
  std::optional<Bytes> hget(const std::string& key, const std::string& field) const;
  bool hdel(const std::string& key, const std::string& field);
  std::map<std::string, Bytes> hgetall(const std::string& key) const;

  // --- sets ----------------------------------------------------------------
  void sadd(const std::string& key, const std::string& member);
  bool srem(const std::string& key, const std::string& member);
  /// Visits the set's members in order under the store's lock (nothing for
  /// an absent key), so a reply can be written from them without a copy.
  void visit_members(const std::string& key,
                     const std::function<void(const std::string&)>& visit) const;
  std::size_t scard(const std::string& key) const;

  // --- ordered maps (score -> members), for range indexes -----------------
  void zadd(const std::string& key, const Bytes& score, const std::string& member);
  bool zrem(const std::string& key, const Bytes& score, const std::string& member);
  /// All members with score in [lo, hi] (inclusive), in score order.
  std::vector<std::string> zrange(const std::string& key, const Bytes& lo,
                                  const Bytes& hi) const;
  std::size_t zcard(const std::string& key) const;
  /// Lowest/highest (score, member); nullopt when empty.
  std::optional<std::pair<Bytes, std::string>> zmin(const std::string& key) const;
  std::optional<std::pair<Bytes, std::string>> zmax(const std::string& key) const;

  // --- counters ------------------------------------------------------------
  std::int64_t incr(const std::string& key, std::int64_t delta = 1);

  /// Approximate resident bytes across all structures (storage metric).
  std::size_t storage_bytes() const;

  /// Order-insensitive digest of the full contents; two stores that hold
  /// the same strings/hashes/sets/zsets/counters fingerprint identically
  /// regardless of hash-map iteration order (replica convergence checks).
  std::uint64_t fingerprint() const;

  /// Flushes buffered AOF records to the OS. The semi-persistent default
  /// buffers writes (matching the paper's Redis config); callers with a
  /// durability point — e.g. the insert intent journal, which must land
  /// before the first cloud mutation — call this explicitly. Trivially OK
  /// for in-memory stores. A failed buffered write since the last sync is
  /// reported here (sticky), so durability points cannot silently pass.
  Status sync();

  /// Drops everything (and truncates the AOF).
  void flush_all();

 private:
  enum class OpCode : std::uint8_t;
  void log_op(OpCode op, const std::vector<Bytes>& args);
  void replay(const std::string& path);
  void apply(OpCode op, const std::vector<Bytes>& args);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Bytes> strings_;
  std::unordered_map<std::string, std::map<std::string, Bytes>> hashes_;
  std::unordered_map<std::string, std::set<std::string>> sets_;
  std::unordered_map<std::string, std::map<Bytes, std::set<std::string>, BytesLess>> zsets_;
  std::unordered_map<std::string, std::int64_t> counters_;

  std::string aof_path_;
  std::FILE* aof_ = nullptr;
  bool replaying_ = false;
  bool aof_write_failed_ = false;  // sticky: a lost record leaves the AOF suspect
};

}  // namespace datablinder::store
