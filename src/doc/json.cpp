#include "doc/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "common/hex.hpp"
#include "common/status.hpp"

namespace datablinder::doc {

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void serialize_into(std::string& out, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: out += "null"; return;
    case ValueType::kBool: out += v.as_bool() ? "true" : "false"; return;
    case ValueType::kInt: out += std::to_string(v.as_int()); return;
    case ValueType::kDouble: {
      const double d = v.as_double();
      if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      return;
    }
    case ValueType::kString: escape_into(out, v.as_string()); return;
    case ValueType::kBinary:
      out += "{\"$bin\":\"" + hex_encode(v.as_binary()) + "\"}";
      return;
    case ValueType::kArray: {
      out += '[';
      const auto& arr = v.as_array();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        serialize_into(out, arr[i]);
      }
      out += ']';
      return;
    }
    case ValueType::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, val] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        escape_into(out, k);
        out += ':';
        serialize_into(out, val);
      }
      out += '}';
      return;
    }
  }
}

/// Deepest array/object nesting the parser accepts, as in the binary codec:
/// recursion past it would overflow the stack on hostile input.
constexpr int kMaxDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "json: trailing data");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "json: unexpected end");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    require(take() == c, std::string("json: expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value(int depth = 0) {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      require(depth < kMaxDepth, "json: nesting too deep");
      return c == '{' ? parse_object(depth + 1) : parse_array(depth + 1);
    }
    if (c == '"') return Value(parse_string());
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value(nullptr);
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      require(pos_ < text_.size(), "json: unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        require(pos_ < text_.size(), "json: bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            require(pos_ + 4 <= text_.size(), "json: bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else throw_error(ErrorCode::kInvalidArgument, "json: bad hex in \\u");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            throw_error(ErrorCode::kInvalidArgument, "json: unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '-' only valid after e/E; the from_chars below validates fully.
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        // A sign anywhere else ends the number; a leading '+' (nothing
        // before it to read) makes it empty.
        if (c == '+' || c == '-') {
          if (pos_ == start || (text_[pos_ - 1] != 'e' && text_[pos_ - 1] != 'E')) break;
        }
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view num = text_.substr(start, pos_ - start);
    require(!num.empty() && num != "-", "json: bad number");
    if (!is_double) {
      std::int64_t i = 0;
      const auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), i);
      if (ec == std::errc() && p == num.data() + num.size()) return Value(i);
    }
    double d = 0;
    const auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), d);
    require(ec == std::errc() && p == num.data() + num.size(), "json: bad number");
    return Value(d);
  }

  Value parse_array(int depth) {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      out.push_back(parse_value(depth));
      skip_ws();
      const char c = take();
      if (c == ']') return Value(std::move(out));
      require(c == ',', "json: expected ',' in array");
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out[std::move(key)] = parse_value(depth);
      skip_ws();
      const char c = take();
      if (c == '}') break;
      require(c == ',', "json: expected ',' in object");
    }
    // Unwrap the binary convention {"$bin": "<hex>"}.
    if (out.size() == 1) {
      auto it = out.find("$bin");
      if (it != out.end() && it->second.type() == ValueType::kString) {
        try {
          return Value(hex_decode(it->second.as_string()));
        } catch (const std::invalid_argument&) {
          throw Error(ErrorCode::kInvalidArgument, "json: bad $bin hex");
        }
      }
    }
    return Value(std::move(out));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_json(const Value& v) {
  std::string out;
  serialize_into(out, v);
  return out;
}

std::string to_json(const Document& d) {
  Object obj = d.fields;
  obj["id"] = Value(d.id);
  return to_json(Value(std::move(obj)));
}

Value parse_json(std::string_view text) { return Parser(text).parse(); }

Document parse_document_json(std::string_view text) {
  Value v = parse_json(text);
  require(v.type() == ValueType::kObject, "document: not a JSON object");
  Document d;
  Object obj = v.as_object();
  auto it = obj.find("id");
  if (it != obj.end()) {
    require(it->second.type() == ValueType::kString, "document: id must be a string");
    d.id = it->second.as_string();
    obj.erase(it);
  }
  d.fields = std::move(obj);
  return d;
}

}  // namespace datablinder::doc
