// ShardRouter — N shard backends (each a ReplicaGroup) behind a
// consistent-hash ring.
//
// The paper positions DataBlinder as *distributed* middleware; this is the
// horizontal half of that claim. Documents shard by id ("doc/<col>/<id>"),
// SSE postings by their PRF-derived address (a deterministic function of
// the keyword token, so a keyword's postings spread while update and
// search always agree on placement), DET labels by keyword token, and
// whole server-side structures that cannot be split (OPE/ORE orderings,
// Sophos chains, Mitra-SL counter coupling, IEX/ZMF boolean structures)
// scope-route to one shard. Aggregates shard by row id and merge
// homomorphically at the router (partial Paillier sums multiply mod n²).
// Which of these a method gets is its row's placement in the cloud-method
// table (net/methods.hpp); a method outside the table is not routable.
//
// The ring uses virtual nodes with deterministic seeded placement: the
// mapping is a pure function of (shard count, virtual nodes, seed), so
// placement is stable across runs and resizing from N to N+1 shards moves
// only ~K/(N+1) of K keys.
//
// Placement leakage: routing happens entirely gateway-side. A shard
// observes only the requests routed to it — the same ciphertexts,
// labels and addresses a single node would see, restricted to its
// partition — and never learns the ring, the key→shard map, or sibling
// shards' traffic. No routing metadata is added to wire bytes
// (ChannelStats-asserted in shard_router_test).
//
// Every multi-shard operation (scatter, broadcast, batch split) fans its
// sub-calls out on an owned WorkerPool so the per-shard channels overlap
// without paying a thread spawn per sub-call; merges are ordered and
// deterministic. Each backend is a full ReplicaGroup, so hedged reads,
// failure accrual and byte-exact replication apply per shard unchanged —
// one shard's failover never stalls its siblings.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "common/bytes.hpp"
#include "common/worker_pool.hpp"
#include "net/backend.hpp"
#include "net/methods.hpp"
#include "net/replica_group.hpp"

namespace datablinder::net {

/// Ring shape: virtual nodes per shard plus the placement seed. The ring
/// is a pure function of (shards, virtual_nodes, seed) — deterministic
/// across runs and processes.
struct RingConfig {
  std::size_t virtual_nodes = 128;
  std::uint64_t seed = 0xDA7AB11D5EEDULL;
};

/// Consistent-hash ring over shard indexes [0, shards).
class HashRing {
 public:
  HashRing(std::size_t shards, RingConfig config = {});

  std::size_t shards() const noexcept { return shards_; }
  std::size_t shard_of(std::string_view key) const;

 private:
  std::size_t shards_;
  /// (point, shard) sorted by point; ties broken by shard index.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

class ShardRouter final : public Backend {
 public:
  /// Backends are non-owning (core::ShardedCloud owns them) and must
  /// outlive the router. At least one backend.
  explicit ShardRouter(std::vector<ReplicaGroup*> shards);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes one already-serialized request: single-key and scope-routed
  /// methods forward the exact wire bytes to one shard; array methods
  /// scatter per-shard sub-requests and merge ordered; structure-wide
  /// reads broadcast and merge (concatenation, sums, or homomorphic
  /// multiplication for Paillier partials). Returns the decoded response
  /// payload; server-side errors re-throw typed.
  Bytes call(const std::string& method, const Bytes& wire_request) override;

  const HashRing& ring() const noexcept { return ring_; }
  std::size_t shards() const noexcept { return shards_.size(); }

  /// Ring key and owning shard of a document. Placement is decided only
  /// here (doc.mget scatters inside the router); callers outside the
  /// router use these to observe it.
  static std::string doc_key(std::string_view col, std::string_view id);
  std::size_t shard_of_doc(const std::string& col, const std::string& id) const;

  /// Binds `counters` on the router and every shard group. Group series
  /// are counted twice: once under their aggregate name ("net.replica.*",
  /// "net.hedge.*") and once instance-labeled ("net.shard.<i>.replica.*")
  /// so per-shard counters never collide; the label set is bounded by the
  /// shard count. nullptr unbinds all of them.
  void set_counters(Counters* counters) override;

  /// Forwarded to every shard group (hedging gate; see ReplicaGroup).
  void set_hedgeable(MethodPredicate pred) override;

 private:
  Bytes call_shard(std::size_t i, const std::string& method, const Bytes& wire);
  /// Serializes (method, payload object) into Request wire bytes.
  static Bytes sub_request(const std::string& method, Bytes payload);

  /// Runs call_shard against every (shard, wire) pair concurrently on
  /// pool_.run_all (the caller claims pairs too) and returns the responses
  /// in pair order. Rethrows the lowest-index failure after all sub-calls
  /// finished touching the backends.
  std::vector<Bytes> fan_out(const std::string& method,
                             const std::vector<std::pair<std::size_t, Bytes>>& calls);

  Bytes route_single(std::size_t shard, const std::string& method, const Bytes& wire);
  Bytes scatter_mget(const std::string& method, const Bytes& wire);
  Bytes scatter_mitra_search(const std::string& method, const Bytes& wire);
  Bytes broadcast(const MethodInfo& info, const Bytes& wire);
  Bytes split_batch(const Bytes& wire);
  /// Target shard for a request that must be servable by ONE shard
  /// (single-key or scope-routed); throws kProtocolError otherwise.
  std::size_t single_shard_of(const MethodInfo& info, const Bytes& payload) const;

  std::vector<ReplicaGroup*> shards_;
  HashRing ring_;

  CounterBinding counters_;

  /// agg.setup's public modulus per scope: broadcast partial sums merge
  /// by multiplication mod n², which needs n gateway-side.
  struct AggScope {
    bigint::BigInt n_squared;
    std::shared_ptr<const bigint::Montgomery> mont;
  };
  mutable std::mutex agg_mutex_;
  std::map<std::string, AggScope> agg_scopes_;

  /// Fan-out sub-calls. fan_out waits for its own sub-calls; a helper that
  /// starts later touches only run_all's shared state, and the pool,
  /// declared last, joins it before any other member is destroyed.
  WorkerPool pool_;
};

}  // namespace datablinder::net
