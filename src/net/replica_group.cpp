#include "net/replica_group.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <tuple>

#include "common/status.hpp"
#include "net/methods.hpp"
#include "net/rpc.hpp"

namespace datablinder::net {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

ReplicaGroup::ReplicaGroup(std::vector<ReplicaEndpoint> endpoints, HedgeConfig hedge,
                           AccrualConfig accrual)
    : hedge_(hedge), accrual_(accrual) {
  if (endpoints.empty()) {
    throw_error(ErrorCode::kInvalidArgument, "replica group needs >= 1 endpoint");
  }
  replicas_.reserve(endpoints.size());
  for (const ReplicaEndpoint& e : endpoints) {
    if (e.server == nullptr || e.channel == nullptr) {
      throw_error(ErrorCode::kInvalidArgument, "replica endpoint needs server+channel");
    }
    auto r = std::make_unique<Replica>();
    r->endpoint = e;
    replicas_.push_back(std::move(r));
  }
}

void ReplicaGroup::set_hedgeable(MethodPredicate pred) {
  std::lock_guard lock(hedgeable_mutex_);
  hedgeable_ = std::move(pred);
}

std::size_t ReplicaGroup::primary() const {
  std::lock_guard lock(write_mutex_);
  return primary_;
}

std::uint64_t ReplicaGroup::log_entries() const {
  std::lock_guard lock(write_mutex_);
  return log_.size();
}

std::uint64_t ReplicaGroup::log_wire_bytes(std::uint64_t upto_seq) const {
  std::lock_guard lock(write_mutex_);
  std::uint64_t n = 0;
  const std::uint64_t last = std::min<std::uint64_t>(upto_seq, log_.size());
  for (std::uint64_t seq = 1; seq <= last; ++seq) n += log_[seq - 1].wire.size();
  return n;
}

std::uint64_t ReplicaGroup::applied_seq(std::size_t i) const {
  return replicas_[i]->applied_seq.load(std::memory_order_acquire);
}

double ReplicaGroup::score(const Replica& r) const {
  // One consecutive failure weighs as much as 10 ms of latency EWMA.
  constexpr double kFailurePenaltyUs = 10000.0;
  return static_cast<double>(r.consecutive_failures.load(std::memory_order_relaxed)) *
             kFailurePenaltyUs +
         r.latency.ewma_us();
}

std::vector<ReplicaHealth> ReplicaGroup::health() const {
  std::lock_guard lock(write_mutex_);
  std::vector<ReplicaHealth> out;
  out.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = *replicas_[i];
    ReplicaHealth h;
    h.index = i;
    h.is_primary = i == primary_;
    h.suspected = r.suspected.load(std::memory_order_relaxed);
    h.consecutive_failures = r.consecutive_failures.load(std::memory_order_relaxed);
    h.applied_seq = r.applied_seq.load(std::memory_order_relaxed);
    h.latency_ewma_us = r.latency.ewma_us();
    h.score = score(r);
    out.push_back(h);
  }
  return out;
}

void ReplicaGroup::accrue_failure(std::size_t i) {
  Replica& r = *replicas_[i];
  const std::uint32_t n = r.consecutive_failures.fetch_add(1) + 1;
  if (n >= accrual_.suspect_threshold && !r.suspected.exchange(true)) {
    counters_.incr("net.replica.demote");
  }
}

void ReplicaGroup::note_success(std::size_t i, std::uint64_t ns) {
  Replica& r = *replicas_[i];
  r.latency.observe(ns);
  r.consecutive_failures.store(0, std::memory_order_relaxed);
  // Failure accrual is symmetric: a delivered response is proof of life,
  // so a healed endpoint rejoins on its first served call.
  if (r.suspected.exchange(false)) counters_.incr("net.replica.rejoin");
}

Bytes ReplicaGroup::attempt(std::size_t i, const std::string& method, const Bytes& wire,
                            bool* sent) {
  Replica& r = *replicas_[i];
  const auto t0 = std::chrono::steady_clock::now();
  try {
    r.endpoint.channel->transfer_request(wire.size(), method);
    *sent = true;
    const Response response = r.endpoint.server->dispatch(Request::deserialize(wire));
    const Bytes wire_response = response.serialize();
    r.endpoint.channel->transfer_response(wire_response.size(), method);
    Response decoded = Response::deserialize(wire_response);
    // A typed error is still a delivered response: the endpoint is alive.
    note_success(i, elapsed_ns(t0));
    if (!decoded.ok) throw Error(decoded.error, decoded.error_message);
    return std::move(decoded.payload);
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kUnavailable) accrue_failure(i);
    throw;
  }
}

std::vector<std::size_t> ReplicaGroup::read_order() const {
  // Only in-sync replicas may serve reads: every acknowledged write is on
  // each of them, so read-your-writes holds on whichever one answers.
  const std::uint64_t committed = committed_seq();
  std::vector<std::tuple<int, double, std::size_t>> ranked;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = *replicas_[i];
    if (r.applied_seq.load(std::memory_order_acquire) < committed) continue;
    ranked.emplace_back(r.suspected.load(std::memory_order_relaxed) ? 1 : 0, score(r),
                        i);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::size_t> order;
  order.reserve(ranked.size());
  for (const auto& [suspected, s, i] : ranked) order.push_back(i);
  return order;
}

Bytes ReplicaGroup::call(const std::string& method, const Bytes& wire_request) {
  // Reads change no cloud state, so any in-sync replica may serve them;
  // every other method, in the table or not, goes through the primary and
  // the replication log.
  const MethodInfo* info = find_method(method);
  if (info != nullptr && info->kind == MethodKind::kRead) {
    return call_read(method, wire_request);
  }
  return call_write(method, wire_request);
}

// --- reads -----------------------------------------------------------------

Bytes ReplicaGroup::call_read(const std::string& method, const Bytes& wire) {
  const std::vector<std::size_t> order = read_order();
  if (order.empty()) {
    throw_error(ErrorCode::kUnavailable, "replica group: no in-sync replica for " + method);
  }
  MethodPredicate hedgeable;
  {
    std::lock_guard lock(hedgeable_mutex_);
    hedgeable = hedgeable_;
  }
  const bool resendable = hedgeable && hedgeable(method);
  if (hedge_.enabled && resendable && order.size() >= 2) {
    return hedged_read(order, method, wire);
  }

  // Sequential fallback: walk replicas by health. Failing over after the
  // request leg shipped is itself a re-send, so it is gated on the same
  // whitelist as hedging.
  std::exception_ptr last;
  for (std::size_t k = 0; k < order.size(); ++k) {
    bool sent = false;
    try {
      return attempt(order[k], method, wire, &sent);
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kUnavailable) throw;
      last = std::current_exception();
      if (sent && !resendable) break;
      if (k + 1 < order.size()) counters_.incr("net.replica.read_failover");
    }
  }
  std::rethrow_exception(last);
}

Bytes ReplicaGroup::hedged_read(const std::vector<std::size_t>& order,
                                const std::string& method, const Bytes& wire) {
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;  // first success recorded
    std::size_t winner = 0;
    Bytes result;
    std::exception_ptr first_error;
    std::size_t finished = 0;
  };
  auto st = std::make_shared<Shared>();

  // Attempts run on the group's pool so the caller can return the moment
  // the first one succeeds; the pool joins every loser before the group's
  // endpoints can be torn down. Each attempt owns copies of its inputs
  // and shares only `st`, so it may outlive this frame.
  auto spawn = [this, st](std::size_t idx, std::string m, Bytes w) {
    hedge_pool_.submit([this, st, idx, m = std::move(m), w = std::move(w)] {
      Bytes out;
      std::exception_ptr err;
      bool sent = false;
      try {
        out = attempt(idx, m, w, &sent);
      } catch (...) {
        err = std::current_exception();
      }
      {
        std::lock_guard lock(st->m);
        if (err == nullptr && !st->done) {
          st->done = true;
          st->winner = idx;
          st->result = std::move(out);
        } else if (err != nullptr && st->first_error == nullptr) {
          st->first_error = std::move(err);
        }
        ++st->finished;
      }
      st->cv.notify_all();
    });
  };

  // Hedge delay: this call is "slow" once it exceeds the chosen replica's
  // own recent p95; before any evidence exists, the floor.
  const OpStats s = replicas_[order[0]]->latency.stats();
  const std::uint64_t delay_us = std::clamp(static_cast<std::uint64_t>(s.p95_us),
                                            hedge_.min_delay_us, hedge_.max_delay_us);

  spawn(order[0], method, wire);
  bool primary_failed_fast = false;
  {
    std::unique_lock lock(st->m);
    st->cv.wait_for(lock, std::chrono::microseconds(delay_us),
                    [&] { return st->done || st->finished >= 1; });
    if (st->done) return std::move(st->result);
    primary_failed_fast = st->finished >= 1;
  }
  if (primary_failed_fast) {
    counters_.incr("net.replica.read_failover");
  } else {
    counters_.incr("net.hedge.fired");
    counters_.incr("net.hedge.delay_us", delay_us);
  }
  spawn(order[1], method, wire);
  std::unique_lock lock(st->m);
  st->cv.wait(lock, [&] { return st->done || st->finished >= 2; });
  if (st->done) {
    if (!primary_failed_fast && st->winner == order[1]) counters_.incr("net.hedge.won");
    return std::move(st->result);
  }
  // Moved out of the shared state, so the exception's last reference dies
  // on this thread, never on the pool worker that releases `st` last.
  std::rethrow_exception(std::move(st->first_error));
}

// --- writes ----------------------------------------------------------------

bool ReplicaGroup::catch_up_locked(std::size_t i) {
  Replica& r = *replicas_[i];
  const std::uint64_t head = log_.size();
  const bool was_suspected = r.suspected.load(std::memory_order_relaxed);
  bool shipped = false;
  while (r.applied_seq.load(std::memory_order_relaxed) < head) {
    const LogEntry& e = log_[r.applied_seq.load(std::memory_order_relaxed)];
    try {
      r.endpoint.channel->transfer_request(e.wire.size(), e.method);
    } catch (const Error&) {
      accrue_failure(i);
      return false;
    }
    const Response response = r.endpoint.server->dispatch(Request::deserialize(e.wire));
    const Bytes wire_response = response.serialize();
    // The replica HAS applied the entry once dispatch returns: count it
    // now, so a fault on the ack leg below can never cause a re-ship
    // (each log entry crosses each replica's channel exactly once).
    r.applied_seq.fetch_add(1, std::memory_order_release);
    shipped = true;
    if (!response.ok) {
      // Byte-identical replay rejected: the replica diverged. Demote hard;
      // it only rejoins through operator intervention (it is never elected
      // and never serves reads past the commit check).
      r.suspected.store(true, std::memory_order_relaxed);
      counters_.incr("net.replica.diverged");
      return false;
    }
    counters_.incr("net.replica.ship");
    try {
      r.endpoint.channel->transfer_response(wire_response.size(), e.method);
    } catch (const Error&) {
      accrue_failure(i);
      counters_.incr("net.replica.ack_lost");
      return false;
    }
  }
  if (shipped) {
    r.consecutive_failures.store(0, std::memory_order_relaxed);
    if (was_suspected && r.suspected.exchange(false)) {
      counters_.incr("net.replica.rejoin");
    }
  }
  return true;
}

void ReplicaGroup::failover_locked() {
  // Candidates by fitness: in-sync healthy replicas first, most caught-up
  // first. The incumbent (suspected) sorts last — it is only "re-elected"
  // when every replica is suspected, which keeps the group limping rather
  // than bricked until something heals.
  std::vector<std::tuple<int, std::uint64_t, std::size_t>> ranked;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = *replicas_[i];
    ranked.emplace_back(r.suspected.load(std::memory_order_relaxed) ? 1 : 0,
                        ~r.applied_seq.load(std::memory_order_relaxed), i);
  }
  std::sort(ranked.begin(), ranked.end());
  for (const auto& [suspected, inv_seq, i] : ranked) {
    // Catch-up replay BEFORE promotion: the new primary must hold every
    // log entry — including applied-but-unacknowledged ones the old
    // primary took — before it may accept writes.
    if (!catch_up_locked(i)) continue;
    if (i != primary_) {
      primary_ = i;
      counters_.incr("net.replica.failover");
    }
    return;
  }
  throw_error(ErrorCode::kUnavailable, "replica group: no replica electable as primary");
}

void ReplicaGroup::advance_commit_locked() {
  std::uint64_t min_applied = ~0ULL;
  bool any = false;
  for (const auto& r : replicas_) {
    if (r->suspected.load(std::memory_order_relaxed)) continue;
    min_applied = std::min(min_applied, r->applied_seq.load(std::memory_order_relaxed));
    any = true;
  }
  if (!any) min_applied = replicas_[primary_]->applied_seq.load(std::memory_order_relaxed);
  if (min_applied > committed_seq_.load(std::memory_order_relaxed)) {
    committed_seq_.store(min_applied, std::memory_order_release);
  }
  // Note: commitment does NOT clear unacked_ — an entry stays there until
  // its caller actually receives the response (normal return or dedup
  // replay), else a retry after an ack-lost commit would re-apply it.
}

// The write path must hold the sequencing lock across apply/catch-up to keep
// the replica log ordered; replicas are in-process, so no network wait occurs.
// dblint:allow-fn(lock-held-egress): in-process replay under the sequencing lock
Bytes ReplicaGroup::call_write(const std::string& method, const Bytes& wire) {
  std::lock_guard lock(write_mutex_);

  // Retry dedup: RpcClient re-sends the SAME serialized bytes, so a write
  // whose ack was lost (applied on the primary, response leg faulted) is
  // recognized byte-exactly and finished — replicated and acknowledged —
  // without a second application.
  for (const std::uint64_t seq : unacked_) {
    if (log_[seq - 1].wire != wire) continue;
    if (replicas_[primary_]->suspected.load(std::memory_order_relaxed)) {
      failover_locked();
    }
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (i != primary_) catch_up_locked(i);
    }
    advance_commit_locked();
    if (committed_seq_.load(std::memory_order_relaxed) >= seq) {
      unacked_.erase(std::remove(unacked_.begin(), unacked_.end(), seq),
                     unacked_.end());
      counters_.incr("net.replica.write_dedup");
      return log_[seq - 1].response;
    }
    throw_error(ErrorCode::kUnavailable,
                "replica group: write applied but not yet replicated");
  }

  // Apply on the primary. A fault before the request leg ships is safe to
  // re-route immediately: nothing reached any replica.
  Response response;
  std::uint64_t t0_elapsed = 0;
  const std::size_t max_routes =
      replicas_.size() * std::max<std::uint32_t>(1, accrual_.suspect_threshold);
  for (std::size_t attempts = 0;; ++attempts) {
    if (replicas_[primary_]->suspected.load(std::memory_order_relaxed)) {
      failover_locked();
    }
    Replica& p = *replicas_[primary_];
    const auto t0 = std::chrono::steady_clock::now();
    try {
      p.endpoint.channel->transfer_request(wire.size(), method);
    } catch (const Error&) {
      accrue_failure(primary_);
      // Re-route only when the failure just demoted the primary (the next
      // iteration fails over); otherwise surface it — the caller's retry
      // policy owns the backoff budget. The bound caps demote/re-elect
      // cycles when every replica is flapping.
      if (attempts + 1 >= max_routes ||
          !replicas_[primary_]->suspected.load(std::memory_order_relaxed)) {
        throw;
      }
      continue;
    }
    response = p.endpoint.server->dispatch(Request::deserialize(wire));
    t0_elapsed = elapsed_ns(t0);
    break;
  }
  Replica& p = *replicas_[primary_];
  const Bytes wire_response = response.serialize();

  if (!response.ok) {
    // Typed rejection: delivered, nothing mutated, nothing to replicate.
    note_success(primary_, t0_elapsed);
    p.endpoint.channel->transfer_response(wire_response.size(), method);
    throw Error(response.error, response.error_message);
  }

  LogEntry entry;
  entry.method = method;
  entry.wire = wire;
  entry.response = response.payload;
  log_.push_back(std::move(entry));
  const std::uint64_t seq = log_.size();
  p.applied_seq.store(seq, std::memory_order_release);

  bool ack_lost = false;
  try {
    p.endpoint.channel->transfer_response(wire_response.size(), method);
    note_success(primary_, t0_elapsed);
  } catch (const Error&) {
    accrue_failure(primary_);
    counters_.incr("net.replica.ack_lost");
    // Applied but unacknowledged: remember the entry so the caller's
    // byte-identical retry is recognized and deduped instead of re-applied.
    unacked_.push_back(seq);
    ack_lost = true;
  }

  // Replicate before acknowledging. Every backup is attempted — including
  // suspected ones, which doubles as the heal probe; a backup that faults
  // stays (or becomes) demoted and lagging, and is NOT required for the ack.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i != primary_) catch_up_locked(i);
  }
  advance_commit_locked();

  if (ack_lost) {
    // The entry is applied (and now replicated), but this caller's
    // response was lost in flight: surface the transport failure so the
    // retry path re-converges through the dedup branch above.
    throw_error(ErrorCode::kUnavailable,
                "replica group: response lost after apply of " + method);
  }
  return response.payload;
}

// dblint:allow-fn(lock-held-egress): same in-process replay invariant as call_write.
std::size_t ReplicaGroup::catch_up_all() {
  std::lock_guard lock(write_mutex_);
  std::size_t in_sync = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (catch_up_locked(i)) ++in_sync;
  }
  advance_commit_locked();
  return in_sync;
}

}  // namespace datablinder::net
