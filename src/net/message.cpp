#include "net/message.hpp"

#include <algorithm>

namespace datablinder::net {

namespace {
void put_str(Bytes& out, const std::string& s) {
  append(out, be32(static_cast<std::uint32_t>(s.size())));
  append(out, to_bytes(s));
}

std::string take_str(BytesView b, std::size_t& off) {
  if (off + 4 > b.size()) throw_error(ErrorCode::kProtocolError, "message: truncated");
  const std::size_t n = read_be32(b.subspan(off));
  off += 4;
  if (off + n > b.size()) throw_error(ErrorCode::kProtocolError, "message: truncated");
  std::string s(reinterpret_cast<const char*>(b.data() + off), n);
  off += n;
  return s;
}

Bytes take_bytes(BytesView b, std::size_t& off) {
  if (off + 4 > b.size()) throw_error(ErrorCode::kProtocolError, "message: truncated");
  const std::size_t n = read_be32(b.subspan(off));
  off += 4;
  if (off + n > b.size()) throw_error(ErrorCode::kProtocolError, "message: truncated");
  Bytes out(b.begin() + static_cast<std::ptrdiff_t>(off),
            b.begin() + static_cast<std::ptrdiff_t>(off + n));
  off += n;
  return out;
}
}  // namespace

Bytes Request::serialize() const {
  Bytes out;
  put_str(out, method);
  append(out, be32(static_cast<std::uint32_t>(payload.size())));
  append(out, payload);
  return out;
}

Request Request::deserialize(BytesView b) {
  std::size_t off = 0;
  Request r;
  r.method = take_str(b, off);
  r.payload = take_bytes(b, off);
  if (off != b.size()) throw_error(ErrorCode::kProtocolError, "request: trailing bytes");
  return r;
}

Response Response::success(Bytes payload) {
  Response r;
  r.ok = true;
  r.payload = std::move(payload);
  return r;
}

Response Response::failure(ErrorCode code, std::string message) {
  Response r;
  r.ok = false;
  r.error = code;
  r.error_message = std::move(message);
  return r;
}

Bytes Response::serialize() const {
  Bytes out;
  out.push_back(ok ? 1 : 0);
  if (ok) {
    append(out, be32(static_cast<std::uint32_t>(payload.size())));
    append(out, payload);
  } else {
    out.push_back(static_cast<std::uint8_t>(error));
    put_str(out, error_message);
  }
  return out;
}

Response Response::deserialize(BytesView b) {
  if (b.empty()) throw_error(ErrorCode::kProtocolError, "response: empty");
  std::size_t off = 1;
  Response r;
  r.ok = b[0] == 1;
  if (r.ok) {
    r.payload = take_bytes(b, off);
  } else {
    if (off >= b.size()) throw_error(ErrorCode::kProtocolError, "response: truncated");
    r.error = static_cast<ErrorCode>(b[off++]);
    r.error_message = take_str(b, off);
  }
  if (off != b.size()) throw_error(ErrorCode::kProtocolError, "response: trailing bytes");
  return r;
}

void BatchWriter::add(BytesView frame) {
  append(out_, be32(static_cast<std::uint32_t>(frame.size())));
  append(out_, frame);
  ++count_;
}

Bytes BatchWriter::finish() && {
  const Bytes count = be32(count_);
  std::copy(count.begin(), count.end(), out_.begin());
  return std::move(out_);
}

std::vector<BytesView> read_batch(BytesView batch, ErrorCode error) {
  std::size_t off = 0;
  auto take32 = [&] {
    if (batch.size() - off < 4) throw_error(error, "batch: truncated");
    const std::uint32_t v = read_be32(batch.subspan(off));
    off += 4;
    return v;
  };
  const std::uint32_t n = take32();
  // Every frame needs at least its length word: a count the bytes left
  // cannot hold is refused before anything is reserved for it.
  if (n > (batch.size() - off) / 4) throw_error(error, "batch: truncated");
  std::vector<BytesView> frames;
  frames.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t len = take32();
    if (batch.size() - off < len) throw_error(error, "batch: truncated frame");
    frames.push_back(batch.subspan(off, len));
    off += len;
  }
  if (off != batch.size()) throw_error(error, "batch: trailing bytes");
  return frames;
}

}  // namespace datablinder::net
