#include "net/rpc.hpp"

#include <algorithm>
#include <random>

#include "common/rng.hpp"

namespace datablinder::net {

RpcClient::RpcClient(RpcServer& server, Channel& channel)
    : endpoint_(std::make_unique<Endpoint>(server, channel)),
      backend_(*endpoint_),
      breaker_(&channel.breaker()) {}

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

std::unordered_map<const RpcClient*, RpcClient::Deferred>&
RpcClient::deferred_sections() noexcept {
  thread_local std::unordered_map<const RpcClient*, Deferred> sections;
  return sections;
}

RpcClient::Deferred* RpcClient::deferred_slot() const noexcept {
  auto& sections = deferred_sections();
  if (sections.empty()) return nullptr;  // the common case: no open section
  auto it = sections.find(this);
  return it == sections.end() ? nullptr : &it->second;
}

void RpcClient::begin_deferred(std::set<std::string> deferrable_methods) {
  if (deferred_slot() != nullptr) {
    throw_error(ErrorCode::kInvalidArgument, "rpc: deferred section already active");
  }
  deferred_sections().emplace(this, Deferred{std::move(deferrable_methods), {}});
}

std::vector<Request> RpcClient::take_deferred() {
  Deferred* d = deferred_slot();
  if (d == nullptr) {
    throw_error(ErrorCode::kInvalidArgument, "rpc: no deferred section active");
  }
  // Move the queue out and end the section before anything else so error
  // paths can never leave a dangling section or stale queued requests.
  std::vector<Request> queue = std::move(d->queue);
  deferred_sections().erase(this);
  return queue;
}

std::size_t RpcClient::flush_deferred() { return send_batch(take_deferred()); }

std::size_t RpcClient::send_batch(const std::vector<Request>& queue) {
  if (queue.empty()) return 0;

  // Encode: count, then length-prefixed serialized sub-requests.
  Bytes payload = be32(static_cast<std::uint32_t>(queue.size()));
  for (const auto& request : queue) {
    const Bytes sub = request.serialize();
    append(payload, be32(static_cast<std::uint32_t>(sub.size())));
    append(payload, sub);
  }
  const Bytes reply = call("rpc.batch", payload);

  // Decode per-call responses; surface the first failure.
  std::size_t off = 0;
  auto take32 = [&](BytesView b) {
    if (off + 4 > b.size()) throw_error(ErrorCode::kProtocolError, "batch: truncated");
    const std::uint32_t v = read_be32(b.subspan(off));
    off += 4;
    return v;
  };
  const std::size_t n = take32(reply);
  if (n != queue.size()) {
    throw_error(ErrorCode::kProtocolError, "batch: response count mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = take32(reply);
    if (off + len > reply.size()) {
      throw_error(ErrorCode::kProtocolError, "batch: truncated response");
    }
    const Response r = Response::deserialize(BytesView(reply).subspan(off, len));
    off += len;
    if (!r.ok) {
      throw Error(r.error, "batch[" + queue[i].method + "]: " + r.error_message);
    }
  }
  return n;
}

void RpcClient::abandon_deferred() noexcept { deferred_sections().erase(this); }

bool RpcClient::in_deferred_section() const noexcept {
  return deferred_slot() != nullptr;
}

RpcServer::Handler RpcClient::make_batch_handler(const RpcServer& server) {
  return [&server](BytesView payload) {
    std::size_t off = 0;
    auto take32 = [&](BytesView b) {
      if (off + 4 > b.size()) throw_error(ErrorCode::kProtocolError, "batch: truncated");
      const std::uint32_t v = read_be32(b.subspan(off));
      off += 4;
      return v;
    };
    const std::size_t n = take32(payload);
    Bytes out = be32(static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t len = take32(payload);
      if (off + len > payload.size()) {
        throw_error(ErrorCode::kProtocolError, "batch: truncated request");
      }
      const Request sub = Request::deserialize(payload.subspan(off, len));
      off += len;
      const Bytes sub_response = server.dispatch(sub).serialize();
      append(out, be32(static_cast<std::uint32_t>(sub_response.size())));
      append(out, sub_response);
    }
    return out;
  };
}

void RpcClient::set_retry_policy(RetryPolicy policy) {
  if (policy.enabled) {
    backend_.set_hedgeable(
        [policy](const std::string& method) { return policy.retryable(method); });
  } else {
    backend_.set_hedgeable(nullptr);
  }
  std::lock_guard lock(policy_mutex_);
  policy_ = std::move(policy);
}

RetryPolicy RpcClient::retry_policy() const {
  std::lock_guard lock(policy_mutex_);
  return policy_;
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
  if (Deferred* d = deferred_slot(); d != nullptr && d->methods.count(method)) {
    // Fire-and-forget method inside a deferred section: queue it. The
    // caller receives the empty payload these methods return by protocol.
    Request request;
    request.method = method;
    request.payload.assign(payload.begin(), payload.end());
    d->queue.push_back(std::move(request));
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

  RetryPolicy policy;
  RetryClock* clock;
  {
    std::lock_guard lock(policy_mutex_);
    policy = policy_;
    clock = clock_ != nullptr ? clock_ : &RetryClock::system();
  }
  if (!policy.enabled && (breaker_ == nullptr || !breaker_->enabled())) {
    // Seed fast path: fail fast.
    return backend_.call(method, wire_request);
  }

  const std::uint64_t start_us = clock->now_us();
  std::uint64_t backoff_us = policy.initial_backoff_us;
  std::mt19937_64 jitter_rng(DetRng::seed_or_entropy(policy.jitter_seed));
  const std::uint32_t max_attempts =
      policy.enabled ? std::max<std::uint32_t>(1, policy.max_attempts) : 1;

  for (std::uint32_t attempt = 1;; ++attempt) {
    bool transport_failure;
    std::exception_ptr error;
    if (breaker_ == nullptr) {
      // Group or router backend: it already did per-replica routing and
      // failover; what escapes it is either a typed server error or "no
      // replica could serve this". The latter retries under the normal
      // budget, re-sending the SAME bytes, which routing re-derives into
      // the same sub-requests and the replica logs dedup.
      try {
        return backend_.call(method, wire_request);
      } catch (const Error& e) {
        transport_failure = e.code() == ErrorCode::kUnavailable;
        error = std::current_exception();
      }
    } else if (!breaker_->try_admit(clock->now_us())) {
      counters_.incr("net.breaker.reject");
      transport_failure = true;
      error = std::make_exception_ptr(
          Error(ErrorCode::kUnavailable, "circuit breaker open: " + method));
    } else {
      try {
        Bytes out = backend_.call(method, wire_request);
        breaker_->on_success();
        return out;
      } catch (const Error& e) {
        transport_failure = e.code() == ErrorCode::kUnavailable;
        if (transport_failure) {
          const auto before = breaker_->state();
          breaker_->on_failure(clock->now_us());
          if (breaker_->state() == CircuitBreaker::State::kOpen &&
              before != CircuitBreaker::State::kOpen) {
            counters_.incr("net.breaker.open");
          }
        } else {
          // A typed server error is a delivered response: endpoint healthy.
          breaker_->on_success();
        }
        error = std::current_exception();
      } catch (...) {
        // Non-Error escape (allocation failure, codec logic bug): no
        // verdict on endpoint health, but the admission MUST be settled —
        // in half-open this admission holds the probe token, and leaving
        // it unsettled would lock the breaker in half-open forever.
        breaker_->on_failure(clock->now_us());
        throw;
      }
    }

    // Retry only transport failures of whitelisted (replay-idempotent)
    // methods, within the attempt and deadline budgets. A retry re-sends
    // `wire_request` — the exact bytes of the first attempt.
    if (!policy.enabled || !transport_failure || !policy.retryable(method) ||
        attempt >= max_attempts) {
      if (policy.enabled && transport_failure && policy.retryable(method)) {
        counters_.incr("net.retry.giveup");
      }
      std::rethrow_exception(error);
    }
    std::uint64_t sleep_us = backoff_us;
    if (policy.jitter > 0.0) {
      const double cut =
          std::uniform_real_distribution<double>(0.0, policy.jitter)(jitter_rng);
      sleep_us -= static_cast<std::uint64_t>(static_cast<double>(sleep_us) * cut);
    }
    if (policy.deadline_us != 0 &&
        clock->now_us() - start_us + sleep_us >= policy.deadline_us) {
      counters_.incr("net.retry.deadline");
      std::rethrow_exception(error);
    }
    counters_.incr("net.retry.attempt");
    counters_.incr("net.retry.backoff_us", sleep_us);
    clock->sleep_us(sleep_us);
    backoff_us = std::min(
        static_cast<std::uint64_t>(static_cast<double>(backoff_us) *
                                   policy.backoff_multiplier),
        policy.max_backoff_us);
  }
}

}  // namespace datablinder::net
