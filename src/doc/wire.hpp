// Payload helpers for the gateway<->cloud RPC protocol: every request and
// response body is a binary-encoded doc::Object. They live here, below both
// net/ (the shard router splits and merges payloads) and core/ (tactics and
// the cloud node build and read them), so there is one copy of each.
#pragma once

#include "common/status.hpp"
#include "doc/binary_codec.hpp"
#include "doc/value.hpp"

namespace datablinder::doc::wire {

inline Bytes pack(Object obj) { return encode_value(Value(std::move(obj))); }

inline Object unpack(BytesView b) {
  Value v = decode_value(b);
  if (v.type() != ValueType::kObject) {
    throw_error(ErrorCode::kProtocolError, "wire: payload is not an object");
  }
  return v.as_object();
}

inline const Value& get(const Object& obj, const std::string& key) {
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw_error(ErrorCode::kProtocolError, "wire: missing key '" + key + "'");
  }
  return it->second;
}

inline std::string get_str(const Object& obj, const std::string& key) {
  return get(obj, key).as_string();
}

inline Bytes get_bin(const Object& obj, const std::string& key) {
  return get(obj, key).as_binary();
}

inline std::int64_t get_int(const Object& obj, const std::string& key) {
  return get(obj, key).as_int();
}

inline const Array& get_arr(const Object& obj, const std::string& key) {
  return get(obj, key).as_array();
}

}  // namespace datablinder::doc::wire
