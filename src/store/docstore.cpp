#include "store/docstore.hpp"

#include <algorithm>

#include "common/fingerprint.hpp"
#include "common/status.hpp"
#include "doc/binary_codec.hpp"

namespace datablinder::store {

using doc::Document;
using doc::Value;
using doc::ValueType;

Filter Filter::all() { return Filter{}; }

Filter Filter::eq(std::string field, Value v) {
  Filter f;
  f.kind = Kind::kEq;
  f.field = std::move(field);
  f.value = std::move(v);
  return f;
}

Filter Filter::range(std::string field, std::optional<Value> lo, std::optional<Value> hi) {
  Filter f;
  f.kind = Kind::kRange;
  f.field = std::move(field);
  f.lo = std::move(lo);
  f.hi = std::move(hi);
  return f;
}

Filter Filter::and_of(std::vector<Filter> children) {
  Filter f;
  f.kind = Kind::kAnd;
  f.children = std::move(children);
  return f;
}

Filter Filter::or_of(std::vector<Filter> children) {
  Filter f;
  f.kind = Kind::kOr;
  f.children = std::move(children);
  return f;
}

Filter Filter::not_of(Filter child) {
  Filter f;
  f.kind = Kind::kNot;
  f.children.push_back(std::move(child));
  return f;
}

int compare_values(const Value& a, const Value& b) {
  const bool numeric_a = a.type() == ValueType::kInt || a.type() == ValueType::kDouble;
  const bool numeric_b = b.type() == ValueType::kInt || b.type() == ValueType::kDouble;
  if (numeric_a && numeric_b) {
    if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
      const auto x = a.as_int(), y = b.as_int();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = a.as_double(), y = b.as_double();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    return a.as_string().compare(b.as_string());
  }
  if (a.type() == ValueType::kBool && b.type() == ValueType::kBool) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  throw_error(ErrorCode::kInvalidArgument, "compare_values: incomparable types");
}

bool Filter::matches(const Document& d) const {
  switch (kind) {
    case Kind::kTrue:
      return true;
    case Kind::kEq: {
      if (!d.has(field)) return false;
      const Value& v = d.at(field);
      // Equality across int/double normalizes numerically.
      try {
        return compare_values(v, value) == 0;
      } catch (const Error&) {
        return false;
      }
    }
    case Kind::kRange: {
      if (!d.has(field)) return false;
      const Value& v = d.at(field);
      try {
        if (lo && compare_values(v, *lo) < 0) return false;
        if (hi && compare_values(v, *hi) > 0) return false;
      } catch (const Error&) {
        return false;
      }
      return true;
    }
    case Kind::kAnd:
      return std::all_of(children.begin(), children.end(),
                         [&](const Filter& c) { return c.matches(d); });
    case Kind::kOr:
      return std::any_of(children.begin(), children.end(),
                         [&](const Filter& c) { return c.matches(d); });
    case Kind::kNot:
      return !children.at(0).matches(d);
  }
  return false;
}

Bytes Collection::index_key(const Value& v) {
  // Order-preserving canonical key per type, with a type tag so mixed-type
  // indexes stay partitioned.
  Bytes out;
  switch (v.type()) {
    case ValueType::kInt: {
      out.push_back(0x02);
      // Flip the sign bit so two's-complement sorts correctly unsigned.
      const auto u = static_cast<std::uint64_t>(v.as_int()) ^ (1ULL << 63);
      append(out, be64(u));
      return out;
    }
    case ValueType::kDouble: {
      out.push_back(0x02);  // shares the numeric partition with ints
      double d = v.as_double();
      std::uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      // IEEE-754 total-order trick: flip all bits for negatives, sign bit
      // for positives.
      bits = (bits & (1ULL << 63)) ? ~bits : (bits | (1ULL << 63));
      append(out, be64(bits));
      return out;
    }
    case ValueType::kString:
      out.push_back(0x04);
      append(out, to_bytes(v.as_string()));
      return out;
    case ValueType::kBool:
      out.push_back(0x01);
      out.push_back(v.as_bool() ? 1 : 0);
      return out;
    default:
      return v.scalar_bytes();  // binary/null: tagged but only equality-useful
  }
}

void Collection::create_index(const std::string& field) {
  std::lock_guard lock(mutex_);
  if (indexes_.count(field)) return;
  auto& index = indexes_[field];
  for (const auto& [id, d] : docs_) {
    if (d.has(field)) index[index_key(d.at(field))].insert(id);
  }
}

void Collection::index_doc(const Document& d) {
  for (auto& [field, index] : indexes_) {
    if (d.has(field)) index[index_key(d.at(field))].insert(d.id);
  }
}

void Collection::unindex_doc(const Document& d) {
  for (auto& [field, index] : indexes_) {
    if (!d.has(field)) continue;
    auto it = index.find(index_key(d.at(field)));
    if (it != index.end()) {
      it->second.erase(d.id);
      if (it->second.empty()) index.erase(it);
    }
  }
}

void Collection::put(Document d) {
  require(!d.id.empty(), "Collection::put: empty id");
  std::lock_guard lock(mutex_);
  auto it = docs_.find(d.id);
  if (it != docs_.end()) unindex_doc(it->second);
  index_doc(d);
  docs_[d.id] = std::move(d);
}

std::optional<Document> Collection::get(const std::string& id) const {
  std::lock_guard lock(mutex_);
  auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  return it->second;
}

void Collection::visit_many(const std::vector<std::string_view>& ids,
                            const std::function<void(const Document&)>& visit) const {
  std::lock_guard lock(mutex_);
  for (const std::string_view id : ids) {
    auto it = docs_.find(id);
    if (it != docs_.end()) visit(it->second);
  }
}

bool Collection::erase(const std::string& id) {
  std::lock_guard lock(mutex_);
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  unindex_doc(it->second);
  docs_.erase(it);
  return true;
}

std::size_t Collection::size() const {
  std::lock_guard lock(mutex_);
  return docs_.size();
}

std::optional<std::set<std::string>> Collection::candidates(const Filter& filter) const {
  // Called with mutex_ held.
  switch (filter.kind) {
    case Filter::Kind::kEq: {
      auto it = indexes_.find(filter.field);
      if (it == indexes_.end()) return std::nullopt;
      auto jt = it->second.find(index_key(filter.value));
      if (jt == it->second.end()) return std::set<std::string>{};
      return jt->second;
    }
    case Filter::Kind::kRange: {
      auto it = indexes_.find(filter.field);
      if (it == indexes_.end()) return std::nullopt;
      std::set<std::string> out;
      auto begin = filter.lo ? it->second.lower_bound(index_key(*filter.lo))
                             : it->second.begin();
      for (auto jt = begin; jt != it->second.end(); ++jt) {
        if (filter.hi && jt->first > index_key(*filter.hi)) break;
        out.insert(jt->second.begin(), jt->second.end());
      }
      return out;
    }
    case Filter::Kind::kAnd: {
      // Use the most selective indexed child as the candidate source.
      std::optional<std::set<std::string>> best;
      for (const auto& c : filter.children) {
        auto cand = candidates(c);
        if (cand && (!best || cand->size() < best->size())) best = std::move(cand);
      }
      return best;
    }
    case Filter::Kind::kOr: {
      // Union only if ALL children are indexable.
      std::set<std::string> out;
      for (const auto& c : filter.children) {
        auto cand = candidates(c);
        if (!cand) return std::nullopt;
        out.insert(cand->begin(), cand->end());
      }
      return out;
    }
    default:
      return std::nullopt;
  }
}

std::vector<Document> Collection::find(const Filter& filter) const {
  std::lock_guard lock(mutex_);
  std::vector<Document> out;
  const auto cand = candidates(filter);
  if (cand) {
    for (const auto& id : *cand) {
      auto it = docs_.find(id);
      if (it != docs_.end() && filter.matches(it->second)) out.push_back(it->second);
    }
  } else {
    for (const auto& [id, d] : docs_) {
      if (filter.matches(d)) out.push_back(d);
    }
  }
  return out;
}

void Collection::scan(const std::function<bool(const Document&)>& visit) const {
  std::lock_guard lock(mutex_);
  for (const auto& [id, d] : docs_) {
    if (!visit(d)) return;
  }
}

std::size_t Collection::storage_bytes() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, d] : docs_) n += doc::encode_document(d).size();
  for (const auto& [field, index] : indexes_) {
    n += field.size();
    for (const auto& [key, ids] : index) {
      n += key.size();
      for (const auto& id : ids) n += id.size();
    }
  }
  return n;
}

std::uint64_t Collection::fingerprint() const {
  std::lock_guard lock(mutex_);
  std::uint64_t digest = 0;
  for (const auto& [id, d] : docs_) {
    std::uint64_t h = fnv1a(kFnvOffset, id);
    h = fnv1a(h, doc::encode_document(d));  // canonical: Object is ordered
    digest += h;
  }
  return digest;
}

Collection& DocumentStore::collection(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
  }
  return *it->second;
}

bool DocumentStore::has_collection(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return collections_.count(name) > 0;
}

std::size_t DocumentStore::storage_bytes() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, c] : collections_) n += c->storage_bytes();
  return n;
}

std::uint64_t DocumentStore::fingerprint() const {
  std::lock_guard lock(mutex_);
  std::uint64_t digest = 0;
  for (const auto& [name, c] : collections_) {
    digest += fnv1a(fnv1a(kFnvOffset, name), c->fingerprint());
  }
  return digest;
}

}  // namespace datablinder::store
