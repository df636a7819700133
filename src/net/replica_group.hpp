// ReplicaGroup — N cloud endpoints behind independent channels, with
// deterministic primary-backup replication, failure-accrual health, and
// hedged reads.
//
// The cloud node is a deterministic state machine over exact wire bytes
// (the intent journal proved this: byte-identical replay converges). The
// group exploits that: every state-mutating request is applied on the
// primary, appended to a gateway-side sequenced log of the exact wire
// bytes, and shipped byte-identically to each backup in log order. A
// backup that misses entries (fault, partition, crash) is demoted from the
// in-sync set and caught up later by replaying exactly the missing log
// suffix — each entry crosses each replica's channel at most once, so
// stateful SSE structures (Sophos chains, Mitra counters) stay consistent
// across replicas and duplicate application is structurally impossible.
//
// Acknowledgement rule: a write is acknowledged to the caller only once
// the primary AND every in-sync backup have applied it. A backup that
// faults during shipping is demoted before the ack, so "acknowledged"
// always means "applied on every replica currently counted healthy" — the
// invariant the chaos suite checks (no acknowledged write lost when any
// subset of replicas dies).
//
// Health is failure accrual, not binary: each replica carries a
// consecutive-transport-failure score blended with a latency EWMA
// (PerfSeries, the same statistic the adaptive cost model uses). Crossing
// the accrual threshold demotes the replica; a demoted primary triggers
// failover — the most caught-up in-sync replica is caught up to the log
// head (catch-up replay BEFORE promotion) and then takes over.
//
// Reads route to the healthiest in-sync replica. When hedging is enabled
// and the method is replay-idempotent (the retry whitelist — hedging IS a
// speculative retry), a hedge fires to the next-best replica after a
// p95-derived delay; first success wins and the loser is discarded.
// Methods outside the whitelist are never hedged and never re-sent after
// their request leg has shipped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/perf_series.hpp"
#include "common/worker_pool.hpp"
#include "net/backend.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"

namespace datablinder::net {

class RpcServer;

/// One replica: an RPC surface plus the (independently faultable) channel
/// leading to it. Both are non-owning; core::ShardedCloud owns them.
struct ReplicaEndpoint {
  RpcServer* server = nullptr;
  Channel* channel = nullptr;
};

/// Hedged-read tuning. The hedge delay is the chosen replica's recent p95
/// latency, clamped to [min_delay_us, max_delay_us]: a hedge should fire
/// only when this call is already slower than the replica's own recent
/// tail.
struct HedgeConfig {
  bool enabled = false;
  std::uint64_t min_delay_us = 200;
  std::uint64_t max_delay_us = 50000;
};

/// Failure-accrual tuning. A replica is suspected (demoted from the
/// in-sync set) at `suspect_threshold` consecutive transport failures;
/// its routing score is failures * 10 ms + latency EWMA.
struct AccrualConfig {
  std::uint32_t suspect_threshold = 3;
};

/// Observability snapshot for one replica.
struct ReplicaHealth {
  std::size_t index = 0;
  bool is_primary = false;
  bool suspected = false;
  std::uint32_t consecutive_failures = 0;
  std::uint64_t applied_seq = 0;
  double latency_ewma_us = 0.0;
  double score = 0.0;
};

class ReplicaGroup final : public Backend {
 public:
  /// At least one endpoint; endpoint 0 starts as primary. Endpoints are
  /// non-owning and must outlive the group.
  ReplicaGroup(std::vector<ReplicaEndpoint> endpoints, HedgeConfig hedge = {},
               AccrualConfig accrual = {});

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  /// Routes one already-serialized request (reads -> healthiest in-sync
  /// replica, hedged when eligible; writes -> primary + replication).
  /// Throws Error(kUnavailable) when no replica can serve it.
  Bytes call(const std::string& method, const Bytes& wire_request) override;

  /// Binds the sink for "net.hedge.*" and "net.replica.*" events.
  void set_counters(Counters* counters) override { counters_.bind(counters); }
  /// As above, and every event is also counted under `alias` (the shard
  /// router's "net.shard.<i>." copies; see CounterBinding).
  void set_counters(Counters* counters, std::string alias) {
    counters_.bind(counters, std::move(alias));
  }

  /// Predicate gating hedges and post-send read failover: only methods the
  /// retry whitelist declares replay-idempotent may be re-sent after their
  /// request leg shipped. Installed by RpcClient from its RetryPolicy;
  /// defaults to "nothing is hedgeable".
  void set_hedgeable(MethodPredicate pred) override;

  /// Ships the missing log suffix to every reachable replica (a healed
  /// replica rejoins without waiting for the next write). Returns how many
  /// replicas are fully caught up afterwards.
  std::size_t catch_up_all();

  // --- observability ------------------------------------------------------
  std::size_t size() const noexcept { return replicas_.size(); }
  std::size_t primary() const;
  std::uint64_t committed_seq() const noexcept {
    return committed_seq_.load(std::memory_order_acquire);
  }
  std::uint64_t log_entries() const;
  /// Sum of serialized request sizes of log entries [1, upto_seq] — the
  /// exact bytes a replica's channel must have carried for those writes
  /// (the chaos suite's duplicate-application check).
  std::uint64_t log_wire_bytes(std::uint64_t upto_seq) const;
  std::uint64_t applied_seq(std::size_t i) const;
  std::vector<ReplicaHealth> health() const;

 private:
  struct Replica {
    ReplicaEndpoint endpoint;
    PerfSeries latency;
    std::atomic<std::uint32_t> consecutive_failures{0};
    std::atomic<bool> suspected{false};
    std::atomic<std::uint64_t> applied_seq{0};
  };

  struct LogEntry {
    std::string method;
    Bytes wire;           // exact serialized Request bytes, as applied
    Bytes response;       // primary's response payload (for retry dedup)
  };

  // One request/response exchange with replica i. Sets *sent once the
  // request leg has shipped (the point past which only whitelisted methods
  // may be re-sent elsewhere). Records latency and resets the accrual
  // score on success; accrues a failure on kUnavailable.
  Bytes attempt(std::size_t i, const std::string& method, const Bytes& wire,
                bool* sent);

  Bytes call_read(const std::string& method, const Bytes& wire);
  Bytes call_write(const std::string& method, const Bytes& wire);
  Bytes hedged_read(const std::vector<std::size_t>& order, const std::string& method,
                    const Bytes& wire);

  /// Read-routing order: in-sync non-suspected first, by ascending score.
  std::vector<std::size_t> read_order() const;
  double score(const Replica& r) const;
  void accrue_failure(std::size_t i);
  void note_success(std::size_t i, std::uint64_t ns);

  /// Ships log entries (replica.applied_seq, log head] to replica i.
  /// Returns true when fully caught up; demotes on fault. Caller holds
  /// write_mutex_.
  bool catch_up_locked(std::size_t i);
  /// Demotes the primary and promotes the most caught-up in-sync replica,
  /// catching it up to the log head first. Caller holds write_mutex_.
  void failover_locked();
  /// Advances committed_seq_ past every entry applied on all non-suspected
  /// replicas. Caller holds write_mutex_.
  void advance_commit_locked();

  // unique_ptr: Replica holds atomics/PerfSeries and must not move.
  std::vector<std::unique_ptr<Replica>> replicas_;
  HedgeConfig hedge_;
  AccrualConfig accrual_;

  mutable std::mutex write_mutex_;  // serializes log appends + replication
  std::vector<LogEntry> log_;
  std::vector<std::uint64_t> unacked_;  // applied-on-primary, not yet acked
  std::size_t primary_ = 0;
  std::atomic<std::uint64_t> committed_seq_{0};

  CounterBinding counters_;
  mutable std::mutex hedgeable_mutex_;
  MethodPredicate hedgeable_;

  // Hedged attempts run here, so the caller can return on the first
  // success while the loser finishes in the background. Declared last:
  // its destructor joins every in-flight loser before the replicas, log
  // and counter binding it touches are destroyed. A hedged read occupies at most two
  // workers (the loser may outlive the read), so the bound only queues
  // attempts once dozens of readers hedge at the same time.
  static constexpr std::size_t kHedgeWorkers = 64;
  WorkerPool hedge_pool_{kHedgeWorkers};
};

}  // namespace datablinder::net
