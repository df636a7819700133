// Request/response RPC over a simulated channel.
//
// The server registers byte-in/byte-out handlers per method name; handler
// exceptions are converted into typed error responses so a DataBlinder
// error thrown cloud-side surfaces gateway-side with its original code —
// the serialization path is exercised end-to-end even though both ends run
// in one process.
//
// Resilience: one retry loop over one Backend, whatever its shape. Transport
// failures (kUnavailable) on methods in the RetryPolicy's whitelist are
// retried with exponential backoff + jitter under a per-call deadline
// budget, re-sending the SAME serialized request bytes (byte-identical
// replay — see resilience.hpp for why that preserves both exactly-once
// state and the leakage profile). Every other method gets one attempt.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
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
  /// outlive the client.
  RpcClient(RpcServer& server, Channel& channel);

  /// Client over a replica group or shard router (which must outlive the
  /// client). The backend tracks replica health itself; the retry loop
  /// still wraps it: a kUnavailable from it (no replica reachable, or an
  /// applied write whose ack was lost) retries with the same
  /// backoff/whitelist/budget rules, re-sending the same bytes, which the
  /// backend routes deterministically and its replica logs dedup.
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

  /// Overrides the clock used for backoff sleeps and deadline budgets
  /// (non-owning; nullptr restores the system steady clock). Test hook.
  void set_clock(RetryClock* clock);

  /// Binds the sink for retry events ("net.retry.attempt",
  /// "net.retry.backoff_us", "net.retry.giveup", "net.retry.deadline"), and
  /// the backend's for its routing events. The gateway binds its
  /// PerfRegistry. nullptr unbinds; it returns once no event is still being
  /// counted (CounterBinding).
  void set_counters(Counters* counters);

  // --- capture and batching ------------------------------------------------
  //
  // Inside capture(body), calls *on this thread* whose method is a
  // deferrable row of net/methods.hpp (a fire-and-forget update, empty reply
  // by protocol) are queued instead of sent and return an empty payload at
  // once; every other call travels as usual. Thread-local, so calls on other
  // threads are unaffected, and a pool fans a write's parts out by capturing
  // each on the thread that runs it.

  /// Runs `body` in a capture section on this thread and returns the
  /// requests it queued, in call order. If `body` throws, the queue is
  /// dropped and the error propagates. Sections never nest: one opened while
  /// this thread captures throws kInvalidArgument.
  std::vector<Request> capture(const std::function<void()>& body);

  /// Ships captured requests as ONE "rpc.batch" round trip; returns how many
  /// were sent, and surfaces the first sub-call failure as its Error. Safe
  /// to replay: the batch carries only keyed overwrites and removals, so
  /// re-sending the identical bytes converges to the same cloud state.
  std::size_t send_batch(const std::vector<Request>& queue);

  /// The server-side batch dispatcher; CloudNode (or any server) registers
  /// it as method "rpc.batch".
  static RpcServer::Handler make_batch_handler(const RpcServer& server);

 private:
  std::unique_ptr<Endpoint> endpoint_;  // owned by the single-endpoint shape
  Backend& backend_;

  mutable std::mutex policy_mutex_;  // guards policy_, clock_
  std::shared_ptr<const RetryPolicy> policy_ = std::make_shared<const RetryPolicy>();
  RetryClock* clock_ = nullptr;
  CounterBinding counters_;
};

}  // namespace datablinder::net
