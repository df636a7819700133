#include "doc/binary_codec.hpp"

#include <cstring>

#include "common/status.hpp"

namespace datablinder::doc {

namespace {
enum Tag : std::uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagBinary = 6,
  kTagArray = 7,
  kTagObject = 8,
};

void store_be32(std::uint8_t* p, std::size_t n) {
  const auto v = static_cast<std::uint32_t>(n);
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// Bound on nesting for the recursive walks: a payload of nested arrays
// (five bytes a level) must fail as malformed, not overflow the stack.
constexpr int kMaxDepth = 512;

[[noreturn]] void malformed(const char* what) {
  throw_error(ErrorCode::kProtocolError, std::string("binary_codec: ") + what);
}

Value read_value(wire::Reader& r, int depth);

void read_members(wire::Reader& r, std::size_t n, Object& obj, int depth) {
  obj.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key(r.key());
    obj.append_or_assign(std::move(key), read_value(r, depth));
  }
}
}  // namespace

namespace wire {

void Writer::put_len(std::size_t n) {
  std::uint8_t be[4];
  store_be32(be, n);
  out_.insert(out_.end(), be, be + 4);
}

void Writer::put_u64(std::uint64_t v) {
  std::uint8_t be[8];
  for (int i = 7; i >= 0; --i, v >>= 8) be[i] = static_cast<std::uint8_t>(v);
  out_.insert(out_.end(), be, be + 8);
}

void Writer::null() { out_.push_back(kTagNull); }

void Writer::boolean(bool b) { out_.push_back(b ? kTagTrue : kTagFalse); }

void Writer::integer(std::int64_t v) {
  out_.push_back(kTagInt);
  put_u64(static_cast<std::uint64_t>(v));
}

void Writer::real(double d) {
  out_.push_back(kTagDouble);
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  put_u64(bits);
}

void Writer::str(std::string_view s) {
  out_.push_back(kTagString);
  key(s);
}

void Writer::bin(BytesView b) {
  out_.push_back(kTagBinary);
  put_len(b.size());
  out_.insert(out_.end(), b.begin(), b.end());
}

void Writer::array(std::size_t n) {
  out_.push_back(kTagArray);
  put_len(n);
}

void Writer::object(std::size_t n) {
  out_.push_back(kTagObject);
  put_len(n);
}

void Writer::key(std::string_view k) {
  put_len(k.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(k.data());
  out_.insert(out_.end(), p, p + k.size());
}

std::size_t Writer::begin_array() {
  const std::size_t header = out_.size();
  array(0);
  return header;
}

void Writer::end_array(std::size_t header, std::size_t n) {
  store_be32(out_.data() + header + 1, n);  // after the array tag
}

void Writer::value(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: null(); return;
    case ValueType::kBool: boolean(v.as_bool()); return;
    case ValueType::kInt: integer(v.as_int()); return;
    case ValueType::kDouble: real(v.as_double()); return;
    case ValueType::kString: str(v.as_string()); return;
    case ValueType::kBinary: bin(v.as_binary()); return;
    case ValueType::kArray:
      array(v.as_array().size());
      for (const auto& e : v.as_array()) value(e);
      return;
    case ValueType::kObject: object(v.as_object()); return;
  }
}

void Writer::object(const Object& obj) {
  object(obj.size());
  for (const auto& [k, v] : obj) {
    key(k);
    value(v);
  }
}

BytesView Reader::take(std::size_t n) {
  if (n > b_.size() - off_) malformed("truncated payload");
  const BytesView out = b_.subspan(off_, n);
  off_ += n;
  return out;
}

void Reader::expect_tag(std::uint8_t want, const char* what) {
  if (take(1)[0] != want) malformed(what);
}

std::size_t Reader::len() {
  if (b_.size() - off_ < 4) malformed("truncated length");
  const std::size_t n = read_be32(b_.subspan(off_));
  off_ += 4;
  return n;
}

std::uint64_t Reader::u64() { return read_be64(take(8)); }

ValueType Reader::peek() const {
  if (at_end()) malformed("truncated payload");
  switch (b_[off_]) {
    case kTagNull: return ValueType::kNull;
    case kTagFalse:
    case kTagTrue: return ValueType::kBool;
    case kTagInt: return ValueType::kInt;
    case kTagDouble: return ValueType::kDouble;
    case kTagString: return ValueType::kString;
    case kTagBinary: return ValueType::kBinary;
    case kTagArray: return ValueType::kArray;
    case kTagObject: return ValueType::kObject;
    default: malformed("unknown tag");
  }
}

void Reader::null() { expect_tag(kTagNull, "expected null"); }

bool Reader::boolean() {
  const std::uint8_t t = take(1)[0];
  if (t != kTagFalse && t != kTagTrue) malformed("expected a bool");
  return t == kTagTrue;
}

std::int64_t Reader::integer() {
  expect_tag(kTagInt, "expected an int");
  return static_cast<std::int64_t>(u64());
}

double Reader::real() {
  expect_tag(kTagDouble, "expected a double");
  const std::uint64_t bits = u64();
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string_view Reader::str() {
  expect_tag(kTagString, "expected a string");
  return key();
}

BytesView Reader::bin() {
  expect_tag(kTagBinary, "expected a binary");
  return take(len());
}

std::size_t Reader::array() {
  expect_tag(kTagArray, "expected an array");
  const std::size_t n = len();
  // Each element occupies at least one byte: reject forged counts before
  // a caller reserves for them (a hostile length must not drive allocation).
  if (n > b_.size() - off_) malformed("truncated payload");
  return n;
}

std::size_t Reader::object() {
  expect_tag(kTagObject, "expected an object");
  const std::size_t n = len();
  if (n > b_.size() - off_) malformed("truncated payload");  // >= 1 byte per member
  return n;
}

std::string_view Reader::key() {
  const BytesView k = take(len());
  return {reinterpret_cast<const char*>(k.data()), k.size()};
}

void Reader::skip() { skip(0); }

void Reader::skip(int depth) {
  if (depth > kMaxDepth) malformed("nesting too deep");
  switch (peek()) {
    case ValueType::kNull: null(); return;
    case ValueType::kBool: boolean(); return;
    case ValueType::kInt: integer(); return;
    case ValueType::kDouble: real(); return;
    case ValueType::kString: str(); return;
    case ValueType::kBinary: bin(); return;
    case ValueType::kArray:
      for (std::size_t n = array(); n > 0; --n) skip(depth + 1);
      return;
    case ValueType::kObject:
      for (std::size_t n = object(); n > 0; --n) {
        key();
        skip(depth + 1);
      }
      return;
  }
}

void Reader::expect_end() const {
  if (!at_end()) malformed("trailing bytes");
}

}  // namespace wire

namespace {
Value read_value(wire::Reader& r, int depth) {
  if (depth > kMaxDepth) malformed("nesting too deep");
  switch (r.peek()) {
    case ValueType::kNull: r.null(); return Value(nullptr);
    case ValueType::kBool: return Value(r.boolean());
    case ValueType::kInt: return Value(r.integer());
    case ValueType::kDouble: return Value(r.real());
    case ValueType::kString: return Value(std::string(r.str()));
    case ValueType::kBinary: {
      const BytesView b = r.bin();
      return Value(Bytes(b.begin(), b.end()));
    }
    case ValueType::kArray: {
      const std::size_t n = r.array();
      Array arr;
      arr.reserve(n);
      for (std::size_t i = 0; i < n; ++i) arr.push_back(read_value(r, depth + 1));
      return Value(std::move(arr));
    }
    case ValueType::kObject: {
      Object obj;
      read_members(r, r.object(), obj, depth + 1);
      return Value(std::move(obj));
    }
  }
  malformed("unknown tag");
}
}  // namespace

Bytes encode_value(const Value& v) {
  Bytes out;
  wire::Writer(out).value(v);
  return out;
}

Value decode_value(BytesView b) {
  wire::Reader r(b);
  Value v = read_value(r, 0);
  r.expect_end();
  return v;
}

Bytes encode_document(const Document& d) {
  Bytes out;
  wire::Writer w(out);
  w.key(d.id);
  w.object(d.fields);
  return out;
}

Document decode_document(BytesView b) {
  wire::Reader r(b);
  Document d;
  d.id = r.key();
  read_members(r, r.object(), d.fields, 1);
  r.expect_end();
  return d;
}

}  // namespace datablinder::doc
