// Tracing for the benchmark's per-layer run.
//
// Spans are recorded from the benchmark's own code only: an "op" span
// around every gateway call (the run loop) and a "cloud" span around every
// call the tracing proxy forwards to CloudNode's RPC surface. Spans stay in
// memory and are written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // cloud spans: the op span that caused them
  std::uint64_t op = 0;      // op span this belongs to; 0 = not attributable
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes_out = 0;  // request wire bytes (cloud spans)
  std::uint64_t bytes_in = 0;   // response wire bytes (cloud spans)
  std::uint64_t items = 0;      // op: docs returned; doc.mget: ids requested
  double latency_us = 0;        // op: as timed (Sample), without sampler time
  double probe_us = 0;          // op: the probe standing for its host speed
  const char* name = "";        // op kind or RPC method (static storage)
  bool cloud = false;
  OpClass cls = OpClass::kWrite;
};

class Tracer {
 public:
  /// With one user, every cloud call in flight belongs to the single op in
  /// flight (including calls the executor's workers make). With several,
  /// calls made on a user's thread are attributed to its op; calls on
  /// executor workers get their class from the method name.
  explicit Tracer(bool single_user) : single_user_(single_user) {}

  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Opens an op span on the calling (user) thread; returns its id.
  std::uint64_t begin_op(OpClass cls);
  void end_op(std::uint64_t id, const Sample& sample, const char* kind, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t docs_returned);

  /// Wraps CloudNode's RPC surface in a server whose every method records a
  /// cloud span and forwards to the node. Throws if the node exposes a
  /// method the proxy does not know.
  std::unique_ptr<datablinder::net::RpcServer> make_proxy(datablinder::core::CloudNode& node);

  std::vector<Span> spans() const;

 private:
  datablinder::Bytes forward(datablinder::core::CloudNode& node, const char* method,
                             datablinder::BytesView payload);
  void record(Span s);

  const bool single_user_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> current_op_{0};  // single-user mode
  std::atomic<OpClass> current_cls_{OpClass::kWrite};

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::vector<std::pair<std::uint64_t, datablinder::Bytes>> mget_requests_;  // guarded by mutex_
};

using PerfSnapshot = std::map<std::pair<std::string, datablinder::core::TacticOperation>,
                              datablinder::OpStats>;

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Everything the per-layer derivation reads.
struct TraceInputs {
  const std::vector<Span>* spans = nullptr;
  PerfSnapshot perf_before, perf_after;  // gateway.perf() around the timed phase
  const RunResult* untraced = nullptr;   // same sequence on the plain stack
  const RunResult* traced = nullptr;
  std::uint64_t setup_round_trips = 0;
};

/// Derives the per-layer metrics (the names in BENCHMARK.json's per_layer).
Metrics derive_layer_metrics(const TraceInputs& in);

/// Writes spans, the perf snapshot delta and the metrics as one JSON file.
void write_trace_file(const std::string& path, const std::string& workload,
                      std::uint64_t seed, const TraceInputs& in, const Metrics& layer,
                      const Metrics& extra);

}  // namespace perfbench
