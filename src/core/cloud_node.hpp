// CloudNode — the untrusted-zone half of DataBlinder (§4, Fig. 3/4).
//
// Hosts the encrypted document store (MongoDB role), the cloud-side secure
// indexes (Redis role) and the cloud implementations of every tactic SPI,
// exposed as RPC methods the gateway calls across the simulated WAN. The
// node never holds key material: it sees only ciphertexts, PRF labels,
// trapdoors/tokens, and Paillier ciphertexts (tests assert this).
//
// A parallel set of "plain.*" methods serves the S_A baseline scenario —
// the same store and channel without any protection, isolating the cost of
// the tactics themselves in the Figure 5 comparison.
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "common/status.hpp"
#include "net/rpc.hpp"
#include "sse/iex2lev.hpp"
#include "sse/iexzmf.hpp"
#include "sse/mitra.hpp"
#include "sse/mitra_stateless.hpp"
#include "sse/sophos.hpp"
#include "store/docstore.hpp"
#include "store/kvstore.hpp"

namespace datablinder::core {

class CloudNode {
 public:
  CloudNode();

  /// The RPC surface the gateway binds to.
  net::RpcServer& rpc() noexcept { return rpc_; }

  /// Storage metric across all cloud-side structures.
  std::size_t storage_bytes() const;

  /// Number of secure-index operations served (Fig. 5 reports ~350k per
  /// experiment run).
  std::uint64_t index_ops() const noexcept { return index_ops_.load(); }

  /// Order-insensitive digest of all replicated state: document store,
  /// KV substrate, every SSE server structure, and Paillier aggregate
  /// columns. Two nodes fed byte-identical write traffic digest equal —
  /// the replica convergence check. Per-node counters (index_ops), which
  /// legitimately differ under read routing, are excluded. Also exposed as
  /// the "admin.digest" RPC method.
  std::uint64_t state_digest() const;

 private:
  // Handler groups — one per cloud-side tactic module (the "cloud
  // implementations" column of Table 1).
  void register_doc_handlers();
  void register_det_handlers();
  void register_ope_handlers();
  void register_ore_handlers();
  void register_mitra_handlers();
  void register_mitra_stateless_handlers();
  void register_sophos_handlers();
  void register_iex_handlers();
  void register_zmf_handlers();
  void register_agg_handlers();
  void register_plain_handlers();
  void register_admin_handlers();

  /// One scope's SSE server and its own lock: a captured write reaches the
  /// cloud after the gateway released its tactic lock, so the server cannot
  /// lean on that lock.
  template <typename Server>
  struct Guarded {
    std::shared_mutex mutex;
    std::unique_ptr<Server> server;  // null until a Sophos scope is set up

    template <typename Fn>
    auto update(Fn fn) {  // fn(server), exclusive
      std::unique_lock lock(mutex);
      return fn(set_up());
    }
    template <typename Fn>
    auto search(Fn fn) {  // fn(server), shared
      std::shared_lock lock(mutex);
      return fn(std::as_const(set_up()));
    }
    Server& set_up() {
      if (!server) throw_error(ErrorCode::kNotFound, "sse: scope not set up");
      return *server;
    }
  };
  template <typename Server>
  using Scopes = std::unordered_map<std::string, Guarded<Server>>;

  /// The scope's entry, never erased. A fresh entry's server is built from
  /// `args` when they can build one (a Sophos server waits for its setup).
  template <typename Server, typename... Args>
  Guarded<Server>& guarded(Scopes<Server>& scopes, const std::string& scope,
                           Args&&... args) {
    std::lock_guard lock(sse_mutex_);
    auto [it, fresh] = scopes.try_emplace(scope);
    if constexpr (std::is_constructible_v<Server, Args...>) {
      if (fresh) it->second.server = std::make_unique<Server>(std::forward<Args>(args)...);
    }
    return it->second;
  }

  net::RpcServer rpc_;
  store::DocumentStore docs_;
  store::KvStore kv_;

  std::mutex sse_mutex_;  // guards the scope maps, not the servers
  Scopes<sse::MitraServer> mitra_;
  Scopes<sse::MitraStatelessServer> mitra_sl_;
  Scopes<sse::SophosServer> sophos_;
  Scopes<sse::Iex2LevServer> iex_;
  Scopes<sse::IexZmfServer> zmf_;

  // A Paillier column keeps a running aggregate, so agg.sum is O(1): the
  // sum is inserted * removed^-1 mod n^2, and the inverse is taken lazily,
  // once per sum and only after a remove or overwrite, never on the write
  // path. The product mod n^2 is one integer, so the result is byte-
  // identical to folding `cts`.
  struct AggColumn {
    bigint::BigInt n;          // Paillier public modulus
    bigint::BigInt n_squared;
    std::shared_ptr<const bigint::Montgomery> mont_n2;  // mod-n^2 multiply context
    std::unordered_map<std::string, bigint::BigInt> cts;  // doc id -> ciphertext
    bigint::BigInt inserted{1};  // product of every ciphertext ever inserted
    bigint::BigInt removed{1};   // product of those since removed or overwritten

    bigint::BigInt mul(const bigint::BigInt& a, const bigint::BigInt& b) const;
    /// inserted = product of `cts`, removed = 1: the exact fallback, used
    /// on (re-)setup and when `removed` has no inverse mod n^2.
    void refold();
    /// The product of `cts` mod n^2 (the encrypted sum).
    const bigint::BigInt& sum();
  };
  std::unordered_map<std::string, AggColumn> agg_;
  std::mutex agg_mutex_;

  // S_A's running averages, so plain.avg is O(1) like agg.sum: per plain
  // collection and averaged field, the sum and count of the numeric values
  // held. A field is tracked from its first plain.avg (one scan); then
  // plain.put (an overwrite subtracts the old value) and plain.del keep it
  // current, under plain_mutex_, which also makes their read of the old
  // document and their write one step.
  struct PlainSum {
    double sum = 0;
    std::int64_t count = 0;
    /// Adds (sign +1) or removes (sign -1) d's value of `field`, if numeric.
    void add(const doc::Document& d, const std::string& field, int sign);
  };
  std::unordered_map<std::string, std::unordered_map<std::string, PlainSum>> plain_sums_;
  std::mutex plain_mutex_;

  std::atomic<std::uint64_t> index_ops_{0};
};

}  // namespace datablinder::core
