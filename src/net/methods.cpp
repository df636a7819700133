#include "net/methods.hpp"

#include <unordered_map>

namespace datablinder::net {

namespace {

using K = MethodKind;
using P = Placement;
using M = Merge;

constexpr bool kDeferrable = true;
constexpr bool kSentAtOnce = false;

// mitrasl.update is not deferrable: Mitra-SL's update protocol first reads
// the keyword's counter from the cloud (mitrasl.get_counter), so a queued
// update would leave the next one reading a stale counter. For the same
// reason Mitra-SL updates sit outside the write intent journal.
constexpr MethodInfo kMethods[] = {
    {"doc.put", K::kUpdate, kDeferrable, P::kDocId},
    {"doc.get", K::kRead, kSentAtOnce, P::kDocId},
    {"doc.mget", K::kRead, kSentAtOnce, P::kScatterMget},
    {"doc.del", K::kUpdate, kDeferrable, P::kDocId},
    {"doc.list", K::kRead, kSentAtOnce, P::kBroadcast, M::kIds},
    {"det.insert", K::kUpdate, kDeferrable, P::kDetLabel},
    {"det.remove", K::kUpdate, kDeferrable, P::kDetLabel},
    {"det.search", K::kRead, kSentAtOnce, P::kDetLabel},
    {"ope.insert", K::kUpdate, kDeferrable, P::kColumnScope},
    {"ope.remove", K::kUpdate, kDeferrable, P::kColumnScope},
    {"ope.range", K::kRead, kSentAtOnce, P::kColumnScope},
    {"ope.extreme", K::kRead, kSentAtOnce, P::kColumnScope},
    {"ore.insert", K::kUpdate, kDeferrable, P::kColumnScope},
    {"ore.remove", K::kUpdate, kDeferrable, P::kColumnScope},
    {"ore.range", K::kRead, kSentAtOnce, P::kColumnScope},
    {"mitra.update", K::kUpdate, kDeferrable, P::kSseAddress},
    {"mitra.search", K::kRead, kSentAtOnce, P::kScatterMitra},
    {"mitrasl.get_counter", K::kRead, kSentAtOnce, P::kNamedScope},
    {"mitrasl.update", K::kUpdate, kSentAtOnce, P::kNamedScope},
    {"mitrasl.search", K::kRead, kSentAtOnce, P::kNamedScope},
    {"sophos.setup", K::kSetup, kSentAtOnce, P::kNamedScope},
    {"sophos.update", K::kUpdate, kDeferrable, P::kNamedScope},
    {"sophos.search", K::kRead, kSentAtOnce, P::kNamedScope},
    {"iex.update", K::kUpdate, kDeferrable, P::kNamedScope},
    {"iex.search", K::kRead, kSentAtOnce, P::kNamedScope},
    {"zmf.setup", K::kSetup, kSentAtOnce, P::kNamedScope},
    {"zmf.update", K::kUpdate, kDeferrable, P::kNamedScope},
    {"zmf.search", K::kRead, kSentAtOnce, P::kNamedScope},
    {"agg.setup", K::kSetup, kSentAtOnce, P::kBroadcast, M::kPaillierSetup},
    {"agg.insert", K::kUpdate, kDeferrable, P::kAggRow},
    {"agg.remove", K::kUpdate, kDeferrable, P::kAggRow},
    {"agg.sum", K::kRead, kSentAtOnce, P::kBroadcast, M::kPaillierSum},
    // The plaintext baseline (S_A). plain.get, plain.del, plain.find_range
    // and plain.find_bool have no caller today; they stay because the
    // table must match what CloudNode registers.
    {"plain.put", K::kUpdate, kSentAtOnce, P::kPlainDoc},
    {"plain.index", K::kUpdate, kSentAtOnce, P::kBroadcast, M::kFirstAck},
    {"plain.get", K::kRead, kSentAtOnce, P::kPlainDoc},
    {"plain.del", K::kUpdate, kSentAtOnce, P::kPlainDoc},
    {"plain.find_eq", K::kRead, kSentAtOnce, P::kBroadcast, M::kDocs},
    {"plain.find_range", K::kRead, kSentAtOnce, P::kBroadcast, M::kDocs},
    {"plain.find_bool", K::kRead, kSentAtOnce, P::kBroadcast, M::kDocs},
    {"plain.avg", K::kRead, kSentAtOnce, P::kBroadcast, M::kPlainAvg},
    {"rpc.batch", K::kBatch, kSentAtOnce, P::kSplitBatch},
    {"admin.storage", K::kRead, kSentAtOnce, P::kBroadcast, M::kCounterSum, "bytes"},
    {"admin.index_ops", K::kRead, kSentAtOnce, P::kBroadcast, M::kCounterSum, "ops"},
    {"admin.digest", K::kRead, kSentAtOnce, P::kBroadcast, M::kCounterSum, "digest"},
};

}  // namespace

std::span<const MethodInfo> cloud_methods() { return kMethods; }

const MethodInfo* find_method(std::string_view method) {
  static const std::unordered_map<std::string_view, const MethodInfo*> kByName = [] {
    std::unordered_map<std::string_view, const MethodInfo*> by_name;
    for (const MethodInfo& m : kMethods) by_name.emplace(m.name, &m);
    return by_name;
  }();
  auto it = kByName.find(method);
  return it == kByName.end() ? nullptr : it->second;
}

}  // namespace datablinder::net
