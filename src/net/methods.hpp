// The cloud-method table: the one place that says what a cloud method is.
//
// In the paper's SPI architecture (§3, Fig. 3) a tactic declares its cloud
// interface once. Here that interface is the set of named methods CloudNode
// registers, and the net layer needs four facts about each of them:
//   - whether it only reads (ReplicaGroup serves reads from any in-sync
//     replica and sends everything else through the primary's log);
//   - whether it is safe to replay (RetryPolicy::standard());
//   - whether it is fire-and-forget (RpcClient's deferred sections);
//   - which shard owns it (ShardRouter).
// Each row of the table states them for one method; the places above read
// the table and keep no list of their own.
//
// Every row is safe to replay: reads change nothing, updates are keyed
// overwrites (dict.put / sadd / zadd / hset) that a byte-identical replay
// re-writes with the same value, setups re-derive the same provisioning
// from recovered keys, and the rpc.batch envelope carries only updates.
//
// A method outside the table (a test's echo server, a third-party tactic)
// keeps the conservative defaults: a replica group treats it as a write,
// the standard retry policy does not retry it, a deferred section never
// queues it, and the shard router refuses it.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace datablinder::net {

enum class MethodKind : std::uint8_t {
  kRead,    // no cloud state change
  kUpdate,  // keyed overwrite
  kSetup,   // per-scope provisioning
  kBatch,   // the rpc.batch envelope
};

/// Which shard owns a request. The single-shard placements come first and
/// name the ring key the router hashes; the rest fan out.
enum class Placement : std::uint8_t {
  kDocId,         // doc/<col>/<id>
  kPlainDoc,      // doc/plain:<col>/<id>; plain.put reads the id from "doc"
  kDetLabel,      // det/<col>/<field>/<label>
  kSseAddress,    // sse/<scope>/<address>
  kAggRow,        // agg/<scope>/<id>
  kColumnScope,   // scope/<family>/<col>/<field>, family = name before '.'
  kNamedScope,    // scope/<family>/<scope>
  kScatterMget,   // ids split per shard, replies merged in request order
  kScatterMitra,  // addresses split per shard, values merged positionally
  kBroadcast,     // every shard; replies merged by MethodInfo::merge
  kSplitBatch,    // each sub-request routed alone, replies reassembled
};

/// How the router merges a broadcast's per-shard replies.
enum class Merge : std::uint8_t {
  kNone,           // not a broadcast
  kFirstAck,       // identical empty acks: forward the first
  kPaillierSetup,  // remember the scope's n² for kPaillierSum, forward the first ack
  kIds,            // concatenate the id lists
  kDocs,           // concatenate the "docs" arrays
  kPlainAvg,       // add "sum" and "count"
  kPaillierSum,    // multiply the "sum_ct" partials mod n², add "count"
  kCounterSum,     // add the integer field `sum_field` as uint64
};

struct MethodInfo {
  std::string_view name;
  MethodKind kind;
  /// Fire-and-forget: an update whose reply is empty by protocol and
  /// computed from nothing the cloud holds, so a deferred section may queue
  /// it and ship it later in one rpc.batch.
  bool deferrable;
  Placement placement;
  Merge merge = Merge::kNone;
  std::string_view sum_field = {};  // Merge::kCounterSum only
};

/// Every method a CloudNode registers, in registration order.
std::span<const MethodInfo> cloud_methods();

/// The row of `method`, or nullptr when it is not in the table.
const MethodInfo* find_method(std::string_view method);

}  // namespace datablinder::net
