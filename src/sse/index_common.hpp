// Shared plumbing for the searchable-symmetric-encryption schemes.
//
// Every SSE construction in this library stores its server state in an
// `EncryptedDict` — an untrusted dictionary from opaque labels to opaque
// values (the server learns only sizes and access patterns, which is each
// scheme's declared leakage). Client-side helpers encode/decode document-id
// lists and keyword-counter state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace datablinder::sse {

/// Document identifiers are opaque strings (the middleware uses random hex).
using DocId = std::string;

struct BytesHash {
  std::size_t operator()(const Bytes& b) const noexcept;
};

/// Untrusted label -> value dictionary: the generic SSE server state.
/// Thread-compatible; the cloud node serializes access.
class EncryptedDict {
 public:
  void put(Bytes label, Bytes value);
  std::optional<Bytes> get(const Bytes& label) const;
  bool erase(const Bytes& label);
  bool contains(const Bytes& label) const;
  std::size_t size() const noexcept { return map_.size(); }

  /// Total stored bytes (labels + values) — the storage-overhead metric.
  std::size_t storage_bytes() const noexcept { return storage_bytes_; }

  /// Order-insensitive content digest (replica convergence checks).
  std::uint64_t fingerprint() const;

  void clear();

 private:
  std::unordered_map<Bytes, Bytes, BytesHash> map_;
  std::size_t storage_bytes_ = 0;
};

/// Length-prefixed encoding of a list of DocIds.
Bytes encode_id_list(const std::vector<DocId>& ids);
std::vector<DocId> decode_id_list(BytesView b);

/// The PRF input `prefix || be64(count) || role` from which the counter-
/// based schemes (Mitra, IEX-2Lev, IEX-ZMF) derive addresses (role 0) and
/// payload pads (role 1). Rewritten in place, so a walk over counts 1..c
/// allocates once.
class CounterInput {
 public:
  explicit CounterInput(std::string_view prefix);
  BytesView at(std::uint64_t count, std::uint8_t role);

 private:
  Bytes buf_;
};

/// Per-keyword update counters (client state for dynamic schemes).
/// Serializable so the gateway can persist it in its local KvStore.
class KeywordCounters {
 public:
  /// Returns the current count for `w` (0 if never seen).
  std::uint64_t get(const std::string& w) const;

  /// Increments and returns the new count.
  std::uint64_t increment(const std::string& w);

  /// Restores a persisted count (gateway-local state recovery).
  void set(const std::string& w, std::uint64_t count) { counts_[w] = count; }

  std::size_t distinct_keywords() const noexcept { return counts_.size(); }

  Bytes serialize() const;
  static KeywordCounters deserialize(BytesView b);

 private:
  std::unordered_map<std::string, std::uint64_t> counts_;
};

}  // namespace datablinder::sse
