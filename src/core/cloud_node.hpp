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
#include <string>
#include <unordered_map>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
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
  void reset_counters() { index_ops_ = 0; }

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

  sse::MitraServer& mitra(const std::string& scope);
  sse::MitraStatelessServer& mitra_sl(const std::string& scope);
  sse::Iex2LevServer& iex(const std::string& scope);
  sse::IexZmfServer& zmf(const std::string& scope, const sse::ZmfFilterParams* params);

  net::RpcServer rpc_;
  store::DocumentStore docs_;
  store::KvStore kv_;

  std::mutex sse_mutex_;
  std::unordered_map<std::string, std::unique_ptr<sse::MitraServer>> mitra_;
  std::unordered_map<std::string, std::unique_ptr<sse::MitraStatelessServer>> mitra_sl_;
  std::unordered_map<std::string, std::unique_ptr<sse::SophosServer>> sophos_;
  std::unordered_map<std::string, std::unique_ptr<sse::Iex2LevServer>> iex_;
  std::unordered_map<std::string, std::unique_ptr<sse::IexZmfServer>> zmf_;

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

  std::atomic<std::uint64_t> index_ops_{0};
};

}  // namespace datablinder::core
