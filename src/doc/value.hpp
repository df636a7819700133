// Document value model.
//
// DataBlinder operates on schemaless-looking documents (the paper stores
// FHIR JSON in MongoDB); `Value` is a JSON-superset variant — it adds a
// first-class binary type so ciphertexts embed without base64 overhead on
// the in-process path. `Document` is an ordered field map with an `id`.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.hpp"

namespace datablinder::doc {

class Value;

using Array = std::vector<Value>;

/// String-keyed map of values, stored as one vector of (key, value) pairs
/// sorted by key: a decoded object costs one allocation, not one node per
/// member. It iterates in std::less<std::string> order, so the binary
/// encoding of an object is canonical, exactly as with std::map.
///
/// Like any vector, an insertion (operator[] on a new key, emplace) or an
/// erase invalidates references and iterators into the object; lookups do
/// not. Keys must not be changed through a mutable iterator.
class Object {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;
  using size_type = std::size_t;

  Object() = default;
  /// Like std::map's: of two equal keys, the first one listed is kept.
  Object(std::initializer_list<value_type> members);  // NOLINT

  iterator begin() noexcept;
  iterator end() noexcept;
  const_iterator begin() const noexcept;
  const_iterator end() const noexcept;
  size_type size() const noexcept;
  bool empty() const noexcept;
  void reserve(size_type n);

  iterator find(std::string_view name);
  const_iterator find(std::string_view name) const;
  size_type count(std::string_view name) const;

  /// Throws std::out_of_range when `name` is absent.
  Value& at(std::string_view name);
  const Value& at(std::string_view name) const;

  /// The member under `name`, inserted as null when absent.
  Value& operator[](std::string_view name);

  /// Inserts when `name` is absent; an existing member is left unchanged.
  std::pair<iterator, bool> emplace(std::string name, Value value);

  /// Appends a member whose key sorts after every present key (the order a
  /// canonical encoding delivers), else assigns it like operator[] — so a
  /// repeated key keeps the last value.
  void append_or_assign(std::string name, Value value);

  size_type erase(std::string_view name);
  iterator erase(const_iterator pos);

  bool operator==(const Object& rhs) const;

 private:
  iterator lower_bound(std::string_view name);
  std::vector<value_type> items_;
};

enum class ValueType { kNull, kBool, kInt, kDouble, kString, kBinary, kArray, kObject };

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}                     // NOLINT
  Value(bool b) : data_(b) {}                                   // NOLINT
  Value(std::int64_t i) : data_(i) {}                           // NOLINT
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}         // NOLINT
  Value(double d) : data_(d) {}                                 // NOLINT
  Value(std::string s) : data_(std::move(s)) {}                 // NOLINT
  Value(const char* s) : data_(std::string(s)) {}               // NOLINT
  Value(Bytes b) : data_(std::move(b)) {}                       // NOLINT
  Value(Array a) : data_(std::move(a)) {}                       // NOLINT
  Value(Object o) : data_(std::move(o)) {}                      // NOLINT

  ValueType type() const noexcept;
  bool is_null() const noexcept { return type() == ValueType::kNull; }

  /// Typed accessors; each throws Error(kInvalidArgument) on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;   // accepts int too (widening)
  const std::string& as_string() const;
  const Bytes& as_binary() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Canonical byte encoding of a scalar for encryption/keyword derivation.
  /// Type-tagged so int 5 and string "5" never collide.
  Bytes scalar_bytes() const;

  /// Human-readable rendering (JSON-ish) for logs and examples.
  std::string to_display() const;

  bool operator==(const Value& rhs) const = default;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Bytes, Array,
               Object>
      data_;
};

/// A stored document: id plus fields. Fields iterate in key order (Object
/// is sorted), so serialization is canonical.
struct Document {
  std::string id;
  Object fields;

  bool has(std::string_view field) const { return fields.count(field) > 0; }

  /// Throws Error(kNotFound) if absent.
  const Value& at(std::string_view field) const;

  void set(std::string_view field, Value v) { fields[field] = std::move(v); }

  bool operator==(const Document& rhs) const = default;
};

// Object's members touch the pair type, so they are defined once Value is
// complete.
inline Object::iterator Object::begin() noexcept { return items_.begin(); }
inline Object::iterator Object::end() noexcept { return items_.end(); }
inline Object::const_iterator Object::begin() const noexcept { return items_.begin(); }
inline Object::const_iterator Object::end() const noexcept { return items_.end(); }
inline Object::size_type Object::size() const noexcept { return items_.size(); }
inline bool Object::empty() const noexcept { return items_.empty(); }
inline void Object::reserve(size_type n) { items_.reserve(n); }
inline Object::iterator Object::erase(const_iterator pos) { return items_.erase(pos); }
inline bool Object::operator==(const Object& rhs) const { return items_ == rhs.items_; }

inline Object::size_type Object::count(std::string_view name) const {
  return find(name) == end() ? 0 : 1;
}

}  // namespace datablinder::doc
