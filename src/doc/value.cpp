#include "doc/value.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hex.hpp"
#include "common/status.hpp"

namespace datablinder::doc {

namespace {
bool name_less(const Object::value_type& member, std::string_view name) {
  return member.first < name;
}
}  // namespace

Object::Object(std::initializer_list<value_type> members) : items_(members) {
  std::stable_sort(items_.begin(), items_.end(),
                   [](const value_type& a, const value_type& b) { return a.first < b.first; });
  items_.erase(std::unique(items_.begin(), items_.end(),
                           [](const value_type& a, const value_type& b) {
                             return a.first == b.first;
                           }),
               items_.end());
}

Object::iterator Object::lower_bound(std::string_view name) {
  return std::lower_bound(items_.begin(), items_.end(), name, name_less);
}

Object::iterator Object::find(std::string_view name) {
  auto it = lower_bound(name);
  return it != items_.end() && it->first == name ? it : items_.end();
}

Object::const_iterator Object::find(std::string_view name) const {
  auto it = std::lower_bound(items_.begin(), items_.end(), name, name_less);
  return it != items_.end() && it->first == name ? it : items_.end();
}

Value& Object::at(std::string_view name) {
  auto it = find(name);
  if (it == items_.end()) throw std::out_of_range("doc::Object::at: no such key");
  return it->second;
}

const Value& Object::at(std::string_view name) const {
  auto it = find(name);
  if (it == items_.end()) throw std::out_of_range("doc::Object::at: no such key");
  return it->second;
}

Value& Object::operator[](std::string_view name) {
  auto it = lower_bound(name);
  if (it == items_.end() || it->first != name) {
    it = items_.emplace(it, std::string(name), Value());
  }
  return it->second;
}

std::pair<Object::iterator, bool> Object::emplace(std::string name, Value value) {
  auto it = lower_bound(name);
  if (it != items_.end() && it->first == name) return {it, false};
  return {items_.emplace(it, std::move(name), std::move(value)), true};
}

void Object::append_or_assign(std::string name, Value value) {
  if (items_.empty() || items_.back().first < name) {
    items_.emplace_back(std::move(name), std::move(value));
  } else {
    (*this)[name] = std::move(value);
  }
}

Object::size_type Object::erase(std::string_view name) {
  auto it = find(name);
  if (it == items_.end()) return 0;
  items_.erase(it);
  return 1;
}

ValueType Value::type() const noexcept {
  return static_cast<ValueType>(data_.index());
}

bool Value::as_bool() const {
  require(std::holds_alternative<bool>(data_), "Value: not a bool");
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  require(std::holds_alternative<std::int64_t>(data_), "Value: not an int");
  return std::get<std::int64_t>(data_);
}

double Value::as_double() const {
  if (std::holds_alternative<std::int64_t>(data_)) {
    return static_cast<double>(std::get<std::int64_t>(data_));
  }
  require(std::holds_alternative<double>(data_), "Value: not a double");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  require(std::holds_alternative<std::string>(data_), "Value: not a string");
  return std::get<std::string>(data_);
}

const Bytes& Value::as_binary() const {
  require(std::holds_alternative<Bytes>(data_), "Value: not binary");
  return std::get<Bytes>(data_);
}

const Array& Value::as_array() const {
  require(std::holds_alternative<Array>(data_), "Value: not an array");
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  require(std::holds_alternative<Object>(data_), "Value: not an object");
  return std::get<Object>(data_);
}

Array& Value::as_array() {
  require(std::holds_alternative<Array>(data_), "Value: not an array");
  return std::get<Array>(data_);
}

Object& Value::as_object() {
  require(std::holds_alternative<Object>(data_), "Value: not an object");
  return std::get<Object>(data_);
}

Bytes Value::scalar_bytes() const {
  Bytes out;
  switch (type()) {
    case ValueType::kNull:
      out.push_back(0x00);
      return out;
    case ValueType::kBool:
      out.push_back(0x01);
      out.push_back(as_bool() ? 1 : 0);
      return out;
    case ValueType::kInt:
      out.push_back(0x02);
      append(out, be64(static_cast<std::uint64_t>(as_int())));
      return out;
    case ValueType::kDouble: {
      out.push_back(0x03);
      const double d = std::get<double>(data_);
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      append(out, be64(bits));
      return out;
    }
    case ValueType::kString:
      out.push_back(0x04);
      append(out, to_bytes(as_string()));
      return out;
    case ValueType::kBinary:
      out.push_back(0x05);
      append(out, as_binary());
      return out;
    case ValueType::kArray:
    case ValueType::kObject:
      throw_error(ErrorCode::kInvalidArgument, "Value::scalar_bytes: not a scalar");
  }
  throw_error(ErrorCode::kInternal, "Value::scalar_bytes: unreachable");
}

std::string Value::to_display() const {
  switch (type()) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return as_bool() ? "true" : "false";
    case ValueType::kInt: return std::to_string(as_int());
    case ValueType::kDouble: return std::to_string(std::get<double>(data_));
    case ValueType::kString: return '"' + as_string() + '"';
    case ValueType::kBinary: return "0x" + hex_encode(as_binary());
    case ValueType::kArray: {
      std::string out = "[";
      const auto& arr = as_array();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ",";
        out += arr[i].to_display();
      }
      return out + "]";
    }
    case ValueType::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : as_object()) {
        if (!first) out += ",";
        first = false;
        out += '"' + k + "\":" + v.to_display();
      }
      return out + "}";
    }
  }
  return "?";
}

const Value& Document::at(std::string_view field) const {
  auto it = fields.find(field);
  if (it == fields.end()) {
    throw_error(ErrorCode::kNotFound, "Document: missing field '" + std::string(field) + "'");
  }
  return it->second;
}

}  // namespace datablinder::doc
