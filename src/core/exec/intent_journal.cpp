#include "core/exec/intent_journal.hpp"

#include <algorithm>
#include <cstdio>

#include "common/status.hpp"

namespace datablinder::core::exec {

namespace {

constexpr char kPendingKey[] = "intent/pending";
constexpr char kSeqKey[] = "intent/seq";
constexpr std::uint32_t kVersion = 1;

void put_str(Bytes& out, const std::string& s) {
  append(out, be32(static_cast<std::uint32_t>(s.size())));
  out.insert(out.end(), s.begin(), s.end());
}

struct Cursor {
  BytesView b;
  std::size_t off = 0;

  std::uint32_t u32() {
    if (off + 4 > b.size()) {
      throw_error(ErrorCode::kInternal, "intent journal: truncated record");
    }
    const std::uint32_t v = read_be32(b.subspan(off));
    off += 4;
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (off + len > b.size()) {
      throw_error(ErrorCode::kInternal, "intent journal: truncated record");
    }
    std::string s(reinterpret_cast<const char*>(b.data()) + off, len);
    off += len;
    return s;
  }
  BytesView rest() const { return b.subspan(off); }
};

Bytes encode(const std::string& collection, const std::vector<std::string>& ids,
             const std::vector<net::Request>& rpcs) {
  Bytes out = be32(kVersion);
  put_str(out, collection);
  append(out, be32(static_cast<std::uint32_t>(ids.size())));
  for (const auto& id : ids) put_str(out, id);
  net::BatchWriter batch;
  for (const auto& r : rpcs) batch.add(r.serialize());
  append(out, std::move(batch).finish());
  return out;
}

IntentJournal::Intent decode(std::string token, BytesView record) {
  Cursor c{record};
  if (c.u32() != kVersion) {
    throw_error(ErrorCode::kInternal, "intent journal: unknown record version");
  }
  IntentJournal::Intent intent;
  intent.token = std::move(token);
  intent.collection = c.str();
  const std::uint32_t n_ids = c.u32();
  intent.ids.reserve(n_ids);
  for (std::uint32_t i = 0; i < n_ids; ++i) intent.ids.push_back(c.str());
  for (const BytesView rpc : net::read_batch(c.rest(), ErrorCode::kInternal)) {
    intent.rpcs.push_back(net::Request::deserialize(rpc));
  }
  return intent;
}

}  // namespace

std::string IntentJournal::begin(const std::string& collection,
                                 const std::vector<std::string>& ids,
                                 const std::vector<net::Request>& rpcs) {
  // Zero-padded sequence prefix so the pending map iterates oldest first.
  char seq[24];
  std::snprintf(seq, sizeof(seq), "%012lld",
                static_cast<long long>(store_.incr(kSeqKey)));
  std::string token = std::string(seq) + "/" + collection +
                      (ids.empty() ? "" : "/" + ids.front());
  store_.hset(kPendingKey, token, encode(collection, ids, rpcs));
  // Durability point: the intent must hit the AOF before the first cloud
  // mutation ships, or a crash could leave partial cloud state with no
  // record to resume from. A failed flush therefore aborts the insert
  // before anything reaches the cloud.
  store_.sync().throw_if_error();
  return token;
}

void IntentJournal::complete(const std::string& token) {
  store_.hdel(kPendingKey, token);
  // Not a durability point: if the completion record is lost, the intent
  // merely replays on recovery, and replay is byte-identical + idempotent.
  // dblint:allow(unchecked-status): completion loss only re-runs an idempotent replay
  (void)store_.sync();
}

std::vector<IntentJournal::Intent> IntentJournal::pending() const {
  std::vector<Intent> out;
  for (const auto& [token, record] : store_.hgetall(kPendingKey)) {
    out.push_back(decode(token, record));
  }
  return out;
}

std::size_t IntentJournal::pending_count() const {
  return store_.hgetall(kPendingKey).size();
}

std::optional<IntentJournal::Intent> IntentJournal::find(
    const std::string& collection, const std::string& id) const {
  for (auto& intent : pending()) {
    if (intent.collection != collection) continue;
    if (std::find(intent.ids.begin(), intent.ids.end(), id) != intent.ids.end()) {
      return std::move(intent);
    }
  }
  return std::nullopt;
}

void IntentJournal::resume(const Intent& intent) {
  // Byte-identical replay of the captured mutations, as one batch — the
  // same envelope the original attempt used. Transport failures propagate
  // with the intent still pending.
  cloud_.send_batch(intent.rpcs);
  complete(intent.token);
}

std::size_t IntentJournal::resume_all() {
  std::size_t completed = 0;
  for (const auto& intent : pending()) {
    resume(intent);
    ++completed;
  }
  return completed;
}

}  // namespace datablinder::core::exec
