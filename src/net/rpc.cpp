#include "net/rpc.hpp"

#include <algorithm>
#include <random>
#include <utility>

#include "common/rng.hpp"
#include "net/methods.hpp"

namespace datablinder::net {

RpcClient::RpcClient(RpcServer& server, Channel& channel)
    : endpoint_(std::make_unique<Endpoint>(server, channel)),
      backend_(*endpoint_) {}

void RpcServer::register_method(const std::string& method, Handler handler) {
  std::lock_guard lock(mutex_);
  if (handlers_.count(method)) {
    throw_error(ErrorCode::kAlreadyExists, "rpc: duplicate method " + method);
  }
  handlers_.emplace(method, std::move(handler));
}

Response RpcServer::dispatch(const Request& request) const noexcept {
  Handler handler;
  {
    std::lock_guard lock(mutex_);
    auto it = handlers_.find(request.method);
    if (it == handlers_.end()) {
      return Response::failure(ErrorCode::kNotFound,
                               "rpc: unknown method " + request.method);
    }
    handler = it->second;
  }
  try {
    return Response::success(handler(request.payload));
  } catch (const Error& e) {
    return Response::failure(e.code(), e.what());
  } catch (const std::exception& e) {
    return Response::failure(ErrorCode::kInternal, e.what());
  }
}

std::size_t RpcServer::method_count() const {
  std::lock_guard lock(mutex_);
  return handlers_.size();
}

namespace {

/// This thread's open capture section: the client it captures for (null
/// when none is open) and the requests queued so far.
struct CaptureSection {
  const RpcClient* client = nullptr;
  std::vector<Request> queue;
};

thread_local CaptureSection t_capture;

}  // namespace

std::vector<Request> RpcClient::capture(const std::function<void()>& body) {
  if (t_capture.client != nullptr) {
    throw_error(ErrorCode::kInvalidArgument, "rpc: capture sections do not nest");
  }
  t_capture.client = this;
  try {
    body();
  } catch (...) {
    t_capture = {};
    throw;
  }
  return std::exchange(t_capture, {}).queue;
}

std::size_t RpcClient::send_batch(const std::vector<Request>& queue) {
  if (queue.empty()) return 0;

  BatchWriter batch;
  for (const auto& request : queue) batch.add(request.serialize());
  const Bytes reply = call("rpc.batch", std::move(batch).finish());

  // Per-call responses; surface the first failure.
  const std::vector<BytesView> responses = read_batch(reply);
  if (responses.size() != queue.size()) {
    throw_error(ErrorCode::kProtocolError, "batch: response count mismatch");
  }
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response r = Response::deserialize(responses[i]);
    if (!r.ok) {
      throw Error(r.error, "batch[" + queue[i].method + "]: " + r.error_message);
    }
  }
  return responses.size();
}

RpcServer::Handler RpcClient::make_batch_handler(const RpcServer& server) {
  return [&server](BytesView payload) {
    BatchWriter out;
    for (const BytesView sub : read_batch(payload)) {
      out.add(server.dispatch(Request::deserialize(sub)).serialize());
    }
    return std::move(out).finish();
  };
}

void RpcClient::set_retry_policy(RetryPolicy policy) {
  auto shared = std::make_shared<const RetryPolicy>(std::move(policy));
  backend_.set_hedgeable(
      [shared](const std::string& method) { return shared->retryable(method); });
  std::lock_guard lock(policy_mutex_);
  policy_ = std::move(shared);
}

void RpcClient::set_clock(RetryClock* clock) {
  std::lock_guard lock(policy_mutex_);
  clock_ = clock;
}

void RpcClient::set_counters(Counters* counters) {
  backend_.set_counters(counters);
  counters_.bind(counters);
}

Bytes Endpoint::call(const std::string& method, const Bytes& wire_request) {
  channel_.transfer_request(wire_request.size(), method);
  // Both ends run in-process: the "cloud" executes here. The bytes still
  // went through full serialize/deserialize so nothing non-serializable
  // can leak across the trust boundary.
  const Response response = server_.dispatch(Request::deserialize(wire_request));
  const Bytes wire_response = response.serialize();
  channel_.transfer_response(wire_response.size(), method);

  Response decoded = Response::deserialize(wire_response);
  if (!decoded.ok) throw Error(decoded.error, decoded.error_message);
  return std::move(decoded.payload);
}

Bytes RpcClient::call(const std::string& method, BytesView payload) {
  const bool capturing = t_capture.client == this;
  if (const MethodInfo* row = capturing ? find_method(method) : nullptr;
      row && row->deferrable) {
    // Fire-and-forget method inside a capture section: queue it. The
    // caller receives the empty payload these methods return by protocol.
    Request request;
    request.method = method;
    request.payload.assign(payload.begin(), payload.end());
    t_capture.queue.push_back(std::move(request));
    static const Bytes kEmptyObject = [] {
      Bytes b;
      b.push_back(8);  // binary-codec object tag
      append(b, be32(0));
      return b;
    }();
    return kEmptyObject;
  }

  Request request;
  request.method = method;
  request.payload.assign(payload.begin(), payload.end());
  const Bytes wire_request = request.serialize();

  // A snapshot of the installed policy: one refcount, not a copy of its
  // whitelist.
  std::shared_ptr<const RetryPolicy> policy;
  RetryClock* clock;
  {
    std::lock_guard lock(policy_mutex_);
    policy = policy_;
    clock = clock_ != nullptr ? clock_ : &RetryClock::system();
  }
  // A method outside the whitelist may not be replay-idempotent: one attempt.
  if (!policy->retryable(method)) return backend_.call(method, wire_request);

  const std::uint64_t start_us = clock->now_us();
  std::uint64_t backoff_us = policy->initial_backoff_us;
  std::mt19937_64 jitter_rng(DetRng::seed_or_entropy(policy->jitter_seed));
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, policy->max_attempts);

  // Whatever the backend's shape (one endpoint, a replica group that already
  // failed over, a shard router), what escapes it is a typed server error,
  // which is a delivered response that retrying cannot help, or kUnavailable.
  // The latter retries within the attempt and deadline budgets, re-sending
  // `wire_request`: the exact bytes of the first attempt, which a group or
  // router routes into the same sub-requests and its replica logs dedup.
  for (std::uint32_t attempt = 1;; ++attempt) {
    std::uint64_t sleep_us = backoff_us;
    try {
      return backend_.call(method, wire_request);
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kUnavailable) throw;
      if (attempt >= max_attempts) {
        counters_.incr("net.retry.giveup");
        throw;
      }
      if (policy->jitter > 0.0) {
        const double cut =
            std::uniform_real_distribution<double>(0.0, policy->jitter)(jitter_rng);
        sleep_us -= static_cast<std::uint64_t>(static_cast<double>(sleep_us) * cut);
      }
      if (policy->deadline_us != 0 &&
          clock->now_us() - start_us + sleep_us >= policy->deadline_us) {
        counters_.incr("net.retry.deadline");
        throw;
      }
    }
    counters_.incr("net.retry.attempt");
    counters_.incr("net.retry.backoff_us", sleep_us);
    clock->sleep_us(sleep_us);
    backoff_us = std::min(
        static_cast<std::uint64_t>(static_cast<double>(backoff_us) *
                                   policy->backoff_multiplier),
        policy->max_backoff_us);
  }
}

}  // namespace datablinder::net
