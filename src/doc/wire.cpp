#include "doc/wire.hpp"

namespace datablinder::doc::wire {

namespace {
[[noreturn]] void missing(std::string_view name) {
  throw_error(ErrorCode::kProtocolError, "wire: missing key '" + std::string(name) + "'");
}

/// Positions `r` at the value of the top-level member `name`, skipping the
/// members before it; returns how many members follow that value.
std::size_t seek_member(Reader& r, std::string_view name) {
  for (std::size_t left = r.object(); left > 0; --left) {
    const std::string_view member = r.key();
    if (member == name) return left - 1;
    r.skip();
  }
  missing(name);
}

void skip_members(Reader& r, std::size_t n) {
  for (; n > 0; --n) {
    r.key();
    r.skip();
  }
  r.expect_end();
}
}  // namespace

MgetRequest unpack_mget(BytesView request) {
  MgetRequest out;
  bool has_col = false;
  bool has_ids = false;
  Reader r(request);
  for (std::size_t n = r.object(); n > 0; --n) {
    const std::string_view name = r.key();
    if (name == "col") {
      out.col = r.str();
      has_col = true;
    } else if (name == "ids") {
      out.ids.resize(r.array());
      for (auto& id : out.ids) id = r.str();
      has_ids = true;
    } else {
      r.skip();
    }
  }
  r.expect_end();
  if (!has_col) missing("col");
  if (!has_ids) missing("ids");
  return out;
}

IdsWriter::IdsWriter() {
  Writer w(out_);
  w.object(1);
  w.key("ids");
  header_ = w.begin_array();
}

void IdsWriter::add(std::string_view id) {
  Writer(out_).str(id);
  ++count_;
}

Bytes IdsWriter::finish() {
  Writer(out_).end_array(header_, count_);
  return std::move(out_);
}

std::vector<std::string> unpack_ids(BytesView reply) {
  Reader r(reply);
  const std::size_t after = seek_member(r, "ids");
  std::vector<std::string> ids(r.array());
  for (auto& id : ids) id = r.str();
  skip_members(r, after);
  return ids;
}

DocsWriter::DocsWriter(std::size_t expected) : expected_(expected) {
  Writer w(out_);
  w.object(1);
  w.key("docs");
  header_ = w.begin_array();
}

void DocsWriter::add(std::string_view id, BytesView blob) {
  const std::size_t before = out_.size();
  Writer w(out_);
  w.object(2);  // members in key order: "blob" < "id"
  w.key("blob");
  w.bin(blob);
  w.key("id");
  w.str(id);
  if (count_++ == 0 && expected_ > 1) {
    out_.reserve(out_.size() + (expected_ - 1) * (out_.size() - before));
  }
}

Bytes DocsWriter::finish() {
  Writer(out_).end_array(header_, count_);
  return std::move(out_);
}

void for_each_doc(BytesView reply,
                  const std::function<void(std::string_view id, BytesView blob)>& visit) {
  Reader r(reply);
  const std::size_t after = seek_member(r, "docs");
  for (std::size_t n = r.array(); n > 0; --n) {
    std::string_view id;
    BytesView blob;
    bool has_id = false;
    bool has_blob = false;
    for (std::size_t m = r.object(); m > 0; --m) {
      const std::string_view name = r.key();
      if (name == "id") {
        id = r.str();
        has_id = true;
      } else if (name == "blob") {
        blob = r.bin();
        has_blob = true;
      } else {
        r.skip();
      }
    }
    if (!has_id) missing("id");
    if (!has_blob) missing("blob");
    visit(id, blob);
  }
  skip_members(r, after);
}

}  // namespace datablinder::doc::wire
