// Binary codec for the document model — the wire format between the
// gateway and the cloud node (compact, lossless, including binary values).
//
// A value is a one-byte tag followed by its payload: nothing for null and
// the booleans, 8 big-endian bytes for an int or a double, a 4-byte
// big-endian length and the bytes for a string or a binary, a 4-byte count
// and the elements for an array, and a 4-byte count and (key, value)
// members for an object, where a key is a 4-byte length and the bytes. A
// document is its id, written like a key, followed by its fields object.
//
// The format has one parser, wire::Reader, and one encoder, wire::Writer.
// The tree functions below are built on them; the bulk reply helpers in
// doc/wire.hpp use the cursors directly and never build a tree.
#pragma once

#include <string_view>

#include "doc/value.hpp"

namespace datablinder::doc {

namespace wire {

/// Appends encoded items straight into one caller-owned buffer.
class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  void null();
  void boolean(bool b);
  void integer(std::int64_t v);
  void real(double d);
  void str(std::string_view s);
  void bin(BytesView b);
  /// Array and object headers; the `n` elements or members follow.
  void array(std::size_t n);
  void object(std::size_t n);
  /// An object member's key, or a document's id: a length and the bytes.
  void key(std::string_view k);

  /// An array header whose element count is not known yet: returns the
  /// position end_array patches once the elements are written.
  std::size_t begin_array();
  void end_array(std::size_t header, std::size_t n);

  /// A whole value tree; an object's header and all of its members.
  void value(const Value& v);
  void object(const Object& obj);

 private:
  void put_len(std::size_t n);
  void put_u64(std::uint64_t v);

  Bytes& out_;
};

/// A bounds-checked cursor over one encoded buffer. Strings, keys and
/// binaries come back as views into that buffer, so they are valid only
/// while it is. Every read throws Error(kProtocolError) on truncated or
/// mistyped input.
class Reader {
 public:
  explicit Reader(BytesView b) : b_(b) {}
  /// The views it hands out would outlive a temporary buffer.
  explicit Reader(Bytes&&) = delete;

  /// Type of the next value, without consuming it.
  ValueType peek() const;

  void null();
  bool boolean();
  std::int64_t integer();
  double real();
  std::string_view str();
  BytesView bin();
  /// Array and object headers: return the element or member count.
  std::size_t array();
  std::size_t object();
  std::string_view key();

  /// Consumes one whole value of any type. Nesting deeper than the
  /// codec's bound is malformed.
  void skip();

  bool at_end() const noexcept { return off_ == b_.size(); }
  /// Throws unless the whole buffer was consumed.
  void expect_end() const;

 private:
  void expect_tag(std::uint8_t want, const char* what);
  std::size_t len();
  std::uint64_t u64();
  BytesView take(std::size_t n);
  void skip(int depth);

  BytesView b_;
  std::size_t off_ = 0;
};

}  // namespace wire

/// Encoded form as a fresh buffer.
Bytes encode_value(const Value& v);

/// Decodes a buffer that contains exactly one value.
/// Throws Error(kProtocolError) on malformed input.
Value decode_value(BytesView b);

Bytes encode_document(const Document& d);
Document decode_document(BytesView b);

}  // namespace datablinder::doc
