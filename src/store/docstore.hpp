// DocumentStore — the MongoDB-role substrate.
//
// Collections of documents with equality and range secondary indexes and a
// small predicate engine (equality / range / and / or). The plaintext
// baseline scenario S_A queries this store directly; the encrypted
// scenarios store opaque blobs here and search via the SSE indexes instead.
//
// Thread-safe per collection (one mutex each).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "doc/value.hpp"

namespace datablinder::store {

/// Predicate AST over document fields.
struct Filter {
  enum class Kind { kTrue, kEq, kRange, kAnd, kOr, kNot };

  Kind kind = Kind::kTrue;
  std::string field;              // kEq / kRange
  doc::Value value;               // kEq
  std::optional<doc::Value> lo;   // kRange (inclusive); nullopt = unbounded
  std::optional<doc::Value> hi;   // kRange (inclusive)
  std::vector<Filter> children;   // kAnd / kOr / kNot

  static Filter all();
  static Filter eq(std::string field, doc::Value v);
  static Filter range(std::string field, std::optional<doc::Value> lo,
                      std::optional<doc::Value> hi);
  static Filter and_of(std::vector<Filter> children);
  static Filter or_of(std::vector<Filter> children);
  static Filter not_of(Filter child);

  bool matches(const doc::Document& d) const;
};

/// Compares two scalar values of compatible types (int/double mix allowed).
/// Returns <0, 0, >0. Throws Error(kInvalidArgument) for incomparable types.
int compare_values(const doc::Value& a, const doc::Value& b);

class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Declares an index on `field` (equality + range). Existing documents
  /// are back-filled.
  void create_index(const std::string& field);

  /// Inserts or replaces by id.
  void put(doc::Document d);

  std::optional<doc::Document> get(const std::string& id) const;

  /// Batched lookup: visits the documents that exist among `ids`, in
  /// request order, under one lock acquisition; missing ids are skipped.
  /// The visitor reads each stored document in place (the substrate of the
  /// cloud's single-round-trip doc.mget).
  void visit_many(const std::vector<std::string_view>& ids,
                  const std::function<void(const doc::Document&)>& visit) const;

  bool erase(const std::string& id);
  std::size_t size() const;

  /// Returns matching documents. Uses an index when the filter's root (or
  /// an AND child) is an indexed equality/range predicate; falls back to a
  /// full scan otherwise.
  std::vector<doc::Document> find(const Filter& filter) const;

  /// Full scan visitor (stops early when the visitor returns false).
  void scan(const std::function<bool(const doc::Document&)>& visit) const;

  std::size_t storage_bytes() const;

  /// Order-insensitive digest over all documents (replica convergence
  /// checks). Secondary indexes are derived state and excluded.
  std::uint64_t fingerprint() const;

 private:
  // Index key: canonical scalar encoding (sorts correctly for strings and
  // non-negative ints; doubles handled via order-preserving bit tricks).
  static Bytes index_key(const doc::Value& v);

  void index_doc(const doc::Document& d);
  void unindex_doc(const doc::Document& d);

  // Candidate ids from the best applicable index, or nullopt for scan.
  std::optional<std::set<std::string>> candidates(const Filter& filter) const;

  mutable std::mutex mutex_;
  std::string name_;
  // Transparent hashing: visit_many looks ids up by view, with no copy.
  struct IdHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view id) const noexcept {
      return std::hash<std::string_view>{}(id);
    }
  };
  std::unordered_map<std::string, doc::Document, IdHash, std::equal_to<>> docs_;
  // field -> ordered index (key bytes -> ids)
  std::unordered_map<std::string, std::map<Bytes, std::set<std::string>, BytesLess>> indexes_;
};

class DocumentStore {
 public:
  /// Creates the collection if absent.
  Collection& collection(const std::string& name);

  bool has_collection(const std::string& name) const;

  std::size_t storage_bytes() const;

  /// Order-insensitive digest across every collection.
  std::uint64_t fingerprint() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Collection>> collections_;
};

}  // namespace datablinder::store
