// Request/response RPC over a simulated channel.
//
// The server registers byte-in/byte-out handlers per method name; handler
// exceptions are converted into typed error responses so a DataBlinder
// error thrown cloud-side surfaces gateway-side with its original code —
// the serialization path is exercised end-to-end even though both ends run
// in one process.
//
// Resilience: with a RetryPolicy installed, transport failures
// (kUnavailable) on whitelisted methods are retried with exponential
// backoff + jitter under a per-call deadline budget, re-sending the SAME
// serialized request bytes (byte-identical replay — see resilience.hpp for
// why that preserves both exactly-once state and the leakage profile). The
// channel's circuit breaker, when enabled, sheds calls while the endpoint
// is down and probes it half-open after a cooldown.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/backend.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/resilience.hpp"

namespace datablinder::net {

class RpcServer {
 public:
  using Handler = std::function<Bytes(BytesView)>;

  /// Registers a handler; throws Error(kAlreadyExists) on duplicates.
  void register_method(const std::string& method, Handler handler);

  /// Dispatches a serialized request to its handler. Never throws: errors
  /// become failure responses.
  Response dispatch(const Request& request) const noexcept;

  std::size_t method_count() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Handler> handlers_;
};

/// A single cloud endpoint: one server behind one channel. call() is one
/// un-retried round trip of pre-serialized request bytes.
class Endpoint final : public Backend {
 public:
  /// Both server and channel must outlive the endpoint.
  Endpoint(RpcServer& server, Channel& channel) : server_(server), channel_(channel) {}

  /// Serialize, cross the channel, dispatch, cross back, deserialize.
  Bytes call(const std::string& method, const Bytes& wire_request) override;
  /// A single endpoint has no routing events and never re-sends.
  void set_counters(Counters*) override {}
  void set_hedgeable(MethodPredicate) override {}

 private:
  RpcServer& server_;
  Channel& channel_;
};

class RpcClient {
 public:
  /// Single-endpoint client over `server` behind `channel`; both must
  /// outlive the client. The only shape that consults the channel's
  /// circuit breaker.
  RpcClient(RpcServer& server, Channel& channel);

  /// Client over a replica group or shard router (which must outlive the
  /// client). The backend's own health tracking replaces the breaker; the
  /// retry loop still wraps it: a kUnavailable from it (no replica
  /// reachable, or an applied write whose ack was lost) retries with the
  /// same backoff/whitelist/budget rules, re-sending the same bytes, which
  /// the backend routes deterministically and its replica logs dedup.
  explicit RpcClient(Backend& backend) : backend_(backend) {}

  /// Full round trip: serialize, hand to the backend, deserialize. Throws
  /// the server-side Error on failure responses. Transport failures are
  /// retried per the installed RetryPolicy.
  Bytes call(const std::string& method, BytesView payload);

  // --- resilience -----------------------------------------------------------

  /// Also installs the policy's whitelist as the backend's hedging gate:
  /// hedging is a speculative retry, so only replay-idempotent methods may
  /// be re-sent after their request leg shipped.
  void set_retry_policy(RetryPolicy policy);
  RetryPolicy retry_policy() const;

  /// Overrides the clock used for backoff sleeps and breaker cooldowns
  /// (non-owning; nullptr restores the system steady clock). Test hook.
  void set_clock(RetryClock* clock);

  /// Binds the sink for retry/breaker events ("net.retry.attempt",
  /// "net.retry.backoff_us", "net.retry.giveup", "net.retry.deadline",
  /// "net.breaker.open", "net.breaker.reject"), and the backend's for its
  /// routing events. The gateway binds its PerfRegistry. nullptr unbinds;
  /// it returns once no event is still being counted (CounterBinding).
  void set_counters(Counters* counters);

  /// The bound channel's circuit breaker, or nullptr for a group/router
  /// backend (whose per-replica accrual is the health authority).
  CircuitBreaker* breaker() noexcept { return breaker_; }

  // --- deferred batching ----------------------------------------------------
  //
  // Between begin_deferred() and flush_deferred(), calls *on this thread*
  // whose method is in the deferrable set are queued instead of sent and
  // return an empty payload immediately (only fire-and-forget update
  // methods qualify — their responses are empty by protocol). flush sends
  // the whole queue as ONE "rpc.batch" round trip; any sub-call failure
  // surfaces as the corresponding Error at flush time. Thread-local, so
  // concurrent callers on other threads are unaffected.
  //
  // Failure contract: flush_deferred()/take_deferred() END the section
  // before any network activity, so every failure path leaves no queued
  // requests behind and a fresh section can immediately be re-begun.

  /// Starts a deferred section. Throws kInvalidArgument if one is active.
  void begin_deferred(std::set<std::string> deferrable_methods);

  /// Sends all queued calls as one batch round trip; returns how many were
  /// sent. Always ends the deferred section, even on error.
  std::size_t flush_deferred();

  /// Ends the deferred section WITHOUT sending and hands the queued
  /// requests to the caller — the capture half of crash-consistent
  /// inserts: the gateway journals the exact bytes, then ships them with
  /// send_batch().
  std::vector<Request> take_deferred();

  /// Ships previously captured requests as ONE "rpc.batch" round trip;
  /// returns how many were sent. Safe to replay: the batch carries only
  /// keyed-overwrite updates, so re-sending the identical bytes converges
  /// to the same cloud state.
  std::size_t send_batch(const std::vector<Request>& queue);

  /// Discards a deferred section without sending (error-path cleanup).
  void abandon_deferred() noexcept;

  bool in_deferred_section() const noexcept;

  /// The server-side batch dispatcher; CloudNode (or any server) registers
  /// it as method "rpc.batch".
  static RpcServer::Handler make_batch_handler(const RpcServer& server);

 private:
  struct Deferred {
    std::set<std::string> methods;
    std::vector<Request> queue;
  };
  /// This thread's open deferred sections, keyed by client so independent
  /// gateway stacks in one process never cross-contaminate.
  static std::unordered_map<const RpcClient*, Deferred>& deferred_sections() noexcept;
  Deferred* deferred_slot() const noexcept;

  std::unique_ptr<Endpoint> endpoint_;  // owned by the single-endpoint shape
  Backend& backend_;
  CircuitBreaker* breaker_ = nullptr;   // non-null only for a single endpoint

  mutable std::mutex policy_mutex_;  // guards policy_, clock_
  RetryPolicy policy_;
  RetryClock* clock_ = nullptr;
  CounterBinding counters_;
};

}  // namespace datablinder::net
