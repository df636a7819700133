// Payload helpers for the gateway<->cloud RPC protocol: every request and
// response body is a binary-encoded doc::Object. They live here, below both
// net/ (the shard router splits and merges payloads) and core/ (tactics and
// the cloud node build and read them), so there is one copy of each.
//
// The two bulk reply shapes — id lists and the doc.mget entries — each have
// one writer and one reader here that work on the encoding directly: the
// cloud writes them from its stores without building a tree, and readers
// hand out views into the reply instead of copies.
#pragma once

#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "doc/binary_codec.hpp"
#include "doc/value.hpp"

namespace datablinder::doc::wire {

inline Bytes pack(const Object& obj) {
  Bytes out;
  Writer(out).object(obj);
  return out;
}

inline Object unpack(BytesView b) {
  Value v = decode_value(b);
  if (v.type() != ValueType::kObject) {
    throw_error(ErrorCode::kProtocolError, "wire: payload is not an object");
  }
  return std::move(v.as_object());
}

inline const Value& get(const Object& obj, std::string_view name) {
  auto it = obj.find(name);
  if (it == obj.end()) {
    throw_error(ErrorCode::kProtocolError, "wire: missing key '" + std::string(name) + "'");
  }
  return it->second;
}

inline std::string get_str(const Object& obj, std::string_view name) {
  return get(obj, name).as_string();
}

inline Bytes get_bin(const Object& obj, std::string_view name) {
  return get(obj, name).as_binary();
}

inline std::int64_t get_int(const Object& obj, std::string_view name) {
  return get(obj, name).as_int();
}

inline const Array& get_arr(const Object& obj, std::string_view name) {
  return get(obj, name).as_array();
}

/// {"col": <collection>, "ids": [<id>, ...]}: the doc.mget request.
template <typename Range>
Bytes pack_mget(std::string_view col, const Range& ids) {
  Bytes out;
  Writer w(out);
  w.object(2);
  w.key("col");
  w.str(col);
  w.key("ids");
  w.array(std::size(ids));
  for (const auto& id : ids) w.str(id);
  return out;
}

/// A doc.mget request read in place: the views point into the request.
struct MgetRequest {
  std::string_view col;
  std::vector<std::string_view> ids;
};
MgetRequest unpack_mget(BytesView request);
MgetRequest unpack_mget(Bytes&&) = delete;  // the views would dangle

/// Writes {"ids": [<id>, ...]}, the reply of every index search and of
/// doc.list, one id at a time.
class IdsWriter {
 public:
  IdsWriter();
  void add(std::string_view id);
  Bytes finish();

 private:
  Bytes out_;
  std::size_t header_ = 0;
  std::size_t count_ = 0;
};

template <typename Range>
Bytes pack_ids(const Range& ids) {
  IdsWriter w;
  for (const auto& id : ids) w.add(id);
  return w.finish();
}

/// Reads the "ids" list of an IdsWriter reply.
std::vector<std::string> unpack_ids(BytesView reply);

/// Writes {"docs": [{"blob": <blob>, "id": <id>}, ...]}, the doc.mget
/// reply, one entry at a time. `expected` entries are reserved for, sized
/// like the first one added.
class DocsWriter {
 public:
  explicit DocsWriter(std::size_t expected);
  void add(std::string_view id, BytesView blob);
  Bytes finish();

 private:
  Bytes out_;
  std::size_t expected_;
  std::size_t header_ = 0;
  std::size_t count_ = 0;
};

/// Visits each (id, blob) entry of a DocsWriter reply in order. The views
/// point into `reply`.
void for_each_doc(BytesView reply,
                  const std::function<void(std::string_view id, BytesView blob)>& visit);

}  // namespace datablinder::doc::wire
