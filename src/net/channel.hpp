// Simulated network channel between the trusted gateway and an untrusted
// cloud endpoint.
//
// The paper's deployment runs the gateway on a private OpenStack cloud and
// the cloud mode on a public provider; SE tactics are inherently
// distributed, so every protocol step crosses this channel. The simulation
// preserves what the evaluation depends on: round-trip structure, byte
// volumes (a tactic performance metric in Fig. 1), configurable latency
// and bandwidth, and injectable faults for failure testing.
//
// Fault injection is deterministic where it matters: beyond the legacy
// probabilistic mode (now seedable), a scripted FaultPlan can fail exact
// transfer ordinals, calls matching a method prefix, or a one-shot outage
// window — so failure tests reproduce instead of flaking.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace datablinder::net {

struct ChannelConfig {
  /// One-way propagation delay, applied twice per round trip.
  std::uint64_t one_way_latency_us = 0;
  /// Bytes per second in each direction; 0 = unlimited.
  std::uint64_t bandwidth_bytes_per_sec = 0;
  /// Serialized service time per request at the endpoint, in microseconds;
  /// 0 (default) disables the service model. Unlike latency and bandwidth
  /// delays — which overlap freely across concurrent callers — service
  /// reservations are serialized per channel: each request leg reserves
  /// the endpoint for service_time_us after the previous reservation ends,
  /// modeling a single-threaded shard node working through its queue. N
  /// shard channels are N independent service queues, which is what makes
  /// horizontal scale-out measurable even on a single-core host.
  std::uint64_t service_time_us = 0;
  /// Probability in [0,1] that a transfer fails with kUnavailable (fault
  /// injection for tests).
  double failure_probability = 0.0;
  /// Seed for the fault RNG; 0 draws from std::random_device. With a fixed
  /// seed, single-threaded probabilistic fault sequences are reproducible
  /// across runs.
  std::uint64_t fault_seed = 0;
};

/// Scripted, reproducible fault schedule. Transfers are numbered from 1 in
/// channel order, counting both request and response legs (so one RPC round
/// trip consumes two ordinals). All clauses compose; any match faults the
/// transfer.
struct FaultPlan {
  /// Fail these exact transfer ordinals.
  std::vector<std::uint64_t> fail_transfers;

  /// Fail request transfers whose method starts with `prefix`, after
  /// letting `skip` matches through, for at most `count` faults. Lets a
  /// test kill "the 3rd det.insert" without counting unrelated traffic.
  struct MethodFault {
    std::string prefix;
    std::uint64_t skip = 0;
    std::uint64_t count = 1;
  };
  std::vector<MethodFault> method_faults;

  /// One-shot outage window: every transfer with ordinal in
  /// [first, first + length) fails; the channel self-heals afterwards.
  struct Outage {
    std::uint64_t first = 0;
    std::uint64_t length = 0;
  };
  std::vector<Outage> outages;

  bool empty() const {
    return fail_transfers.empty() && method_faults.empty() && outages.empty();
  }
};

/// Byte/round-trip accounting — the "network overhead" performance metrics
/// of the tactic abstraction model (Fig. 1).
struct ChannelStats {
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> round_trips{0};
  std::atomic<std::uint64_t> faults_injected{0};

  void reset() {
    bytes_sent = 0;
    bytes_received = 0;
    round_trips = 0;
    faults_injected = 0;
  }
};

class Channel {
 public:
  explicit Channel(ChannelConfig config = {});

  /// Accounts for and delays one request/response exchange. Throws
  /// Error(kUnavailable) when a fault fires or the channel is closed.
  /// Called by the RPC client around the server dispatch; `method` feeds
  /// the FaultPlan's method-prefix matching.
  void transfer_request(std::size_t bytes, const std::string& method = {});
  void transfer_response(std::size_t bytes, const std::string& method = {});

  void close() noexcept { closed_ = true; }
  void reopen() noexcept { closed_ = false; }
  bool closed() const noexcept { return closed_; }

  /// Thread-safe: transfers running concurrently with a config change see
  /// either the old or the new config, never a torn mix.
  void set_config(const ChannelConfig& config);
  ChannelConfig config() const;

  /// Installs / clears the scripted fault schedule. The transfer ordinal
  /// counter keeps running across plan changes; arm_fault_plan() also
  /// resets it to 0 so plans can be written against a known origin.
  void set_fault_plan(FaultPlan plan);
  void arm_fault_plan(FaultPlan plan);
  void clear_fault_plan();

  /// Total transfers attempted so far (faulted ones included).
  std::uint64_t transfers() const;

  ChannelStats& stats() noexcept { return stats_; }

 private:
  void simulate_delay(std::uint64_t latency_us, std::uint64_t bandwidth,
                      std::size_t bytes) const;
  /// Evaluates fault clauses for one transfer and, for request legs under
  /// a service model, reserves the endpoint's next service slot (into
  /// *service_wait_us). Returns the latched config snapshot so the delay
  /// simulation runs outside the lock.
  ChannelConfig account_and_maybe_fail(const std::string& method, bool is_request,
                                       std::uint64_t* service_wait_us = nullptr);

  mutable std::mutex mutex_;  // guards config_, plan state, RNG, ordinal
  ChannelConfig config_;
  FaultPlan plan_;
  std::uint64_t transfer_seq_ = 0;
  std::uint64_t busy_until_us_ = 0;  // service-queue head (guarded by mutex_)
  std::mt19937_64 rng_;

  ChannelStats stats_;
  std::atomic<bool> closed_{false};
};

}  // namespace datablinder::net
