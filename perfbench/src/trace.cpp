#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/wire.hpp"

namespace perfbench {

using datablinder::Bytes;
using datablinder::BytesView;
using datablinder::core::TacticOperation;
namespace net = datablinder::net;

namespace {

// Every method CloudNode registers (core/cloud_node.cpp). make_proxy checks
// the count against the node, so a new method fails the traced run loudly.
constexpr const char* kCloudMethods[] = {
    "doc.put",        "doc.get",         "doc.mget",       "doc.del",
    "doc.list",       "det.insert",      "det.remove",     "det.search",
    "ope.insert",     "ope.remove",      "ope.range",      "ope.extreme",
    "ore.insert",     "ore.remove",      "ore.range",      "mitra.update",
    "mitra.search",   "mitrasl.get_counter", "mitrasl.update", "mitrasl.search",
    "sophos.setup",   "sophos.update",   "sophos.search",  "iex.update",
    "iex.search",     "zmf.setup",       "zmf.update",     "zmf.search",
    "agg.setup",      "agg.insert",      "agg.remove",     "agg.sum",
    "plain.put",      "plain.index",     "plain.get",      "plain.del",
    "plain.find_eq",  "plain.find_range", "plain.find_bool", "plain.avg",
    "rpc.batch",      "admin.storage",   "admin.index_ops", "admin.digest",
};

// Op attribution on user threads when several users run at once.
thread_local std::uint64_t t_op = 0;
thread_local OpClass t_cls = OpClass::kWrite;

bool ends_with(const char* s, const char* suffix) {
  const std::size_t n = std::strlen(s), m = std::strlen(suffix);
  return n >= m && std::strcmp(s + n - m, suffix) == 0;
}

/// Index lookups: the cloud half of an equality / boolean / range query.
bool is_index_search(const char* method) {
  return ends_with(method, ".search") || ends_with(method, ".range");
}

/// Class of a call no op can be attributed to (executor workers under
/// several users). Exact for the fig5 mix, whose methods split cleanly.
OpClass class_of_method(const char* method) {
  if (std::strcmp(method, "agg.sum") == 0) return OpClass::kAgg;
  if (is_index_search(method) || std::strcmp(method, "doc.mget") == 0 ||
      std::strcmp(method, "doc.get") == 0) {
    return OpClass::kRead;
  }
  return OpClass::kWrite;
}

bool in_class(TacticOperation op, OpClass c) {
  switch (op) {
    case TacticOperation::kInsert:
    case TacticOperation::kDelete:
    case TacticOperation::kUpdate:
      return c == OpClass::kWrite;
    case TacticOperation::kRead:
    case TacticOperation::kEqualitySearch:
    case TacticOperation::kBooleanSearch:
    case TacticOperation::kRangeQuery:
      return c == OpClass::kRead;
    case TacticOperation::kAverage:
    case TacticOperation::kSum:
    case TacticOperation::kCount:
    case TacticOperation::kMin:
    case TacticOperation::kMax:
      return c == OpClass::kAgg;
    default:
      return false;
  }
}

bool is_search(TacticOperation op) {
  return op == TacticOperation::kEqualitySearch || op == TacticOperation::kBooleanSearch ||
         op == TacticOperation::kRangeQuery;
}

/// Count and total time recorded into one perf series during the run.
struct Delta {
  std::uint64_t count = 0;
  double total_us = 0;
};

Delta delta(const PerfSnapshot& before, const PerfSnapshot& after,
            const std::pair<std::string, TacticOperation>& key) {
  Delta d;
  auto a = after.find(key);
  if (a == after.end()) return d;
  d.count = a->second.count;
  d.total_us = static_cast<double>(a->second.total_ns) / 1e3;
  if (auto b = before.find(key); b != before.end()) {
    d.count -= b->second.count;
    d.total_us -= static_cast<double>(b->second.total_ns) / 1e3;
  }
  return d;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Length of the union of [start, end) intervals.
double covered_us(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return static_cast<double>(total) / 1e3;
}

}  // namespace

std::uint64_t Tracer::begin_op(OpClass cls) {
  const std::uint64_t id = next_id_.fetch_add(1);
  if (single_user_) {
    current_cls_.store(cls);
    current_op_.store(id);
  } else {
    t_op = id;
    t_cls = cls;
  }
  return id;
}

void Tracer::end_op(std::uint64_t id, const Sample& sample, const char* kind,
                    std::int64_t start_ns, std::int64_t end_ns, std::uint64_t docs_returned) {
  if (single_user_) {
    current_op_.store(0);
  } else {
    t_op = 0;
  }
  Span s;
  s.id = id;
  s.op = id;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.items = docs_returned;
  s.latency_us = sample.latency_us;
  s.probe_us = sample.probe_us;
  s.name = kind;
  s.cls = sample.cls;
  record(s);
}

std::unique_ptr<net::RpcServer> Tracer::make_proxy(datablinder::core::CloudNode& node) {
  auto server = std::make_unique<net::RpcServer>();
  for (const char* method : kCloudMethods) {
    server->register_method(method, [this, &node, method](BytesView payload) {
      return forward(node, method, payload);
    });
  }
  if (server->method_count() != node.rpc().method_count()) {
    datablinder::throw_error(datablinder::ErrorCode::kInternal,
                             "tracing proxy: CloudNode exposes " +
                                 std::to_string(node.rpc().method_count()) +
                                 " methods, the proxy knows " +
                                 std::to_string(server->method_count()));
  }
  return server;
}

Bytes Tracer::forward(datablinder::core::CloudNode& node, const char* method,
                      BytesView payload) {
  net::Request request;
  request.method = method;
  request.payload.assign(payload.begin(), payload.end());
  if (!enabled()) {
    net::Response r = node.rpc().dispatch(request);
    if (!r.ok) throw datablinder::Error(r.error, r.error_message);
    return std::move(r.payload);
  }

  Span s;
  s.cloud = true;
  s.name = method;
  s.id = next_id_.fetch_add(1);
  if (single_user_) {
    s.op = current_op_.load();
    s.cls = current_cls_.load();
  } else if (t_op != 0) {
    s.op = t_op;
    s.cls = t_cls;
  } else {
    s.cls = class_of_method(method);
  }
  s.parent = s.op;
  // Wire sizes as net::Request / net::Response frame them.
  s.bytes_out = 4 + std::strlen(method) + 4 + payload.size();

  s.start_ns = now_ns();
  net::Response r = node.rpc().dispatch(request);
  s.end_ns = now_ns();
  s.bytes_in = r.ok ? 1 + 4 + r.payload.size() : 1 + 1 + 4 + r.error_message.size();
  {
    std::lock_guard lock(mutex_);
    // doc.mget ids are counted when the spans are read, not inside the op.
    if (std::strcmp(method, "doc.mget") == 0) mget_requests_.emplace_back(s.id, request.payload);
    spans_.push_back(s);
  }
  if (!r.ok) throw datablinder::Error(r.error, r.error_message);
  return std::move(r.payload);
}

void Tracer::record(Span s) {
  std::lock_guard lock(mutex_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  namespace wire = datablinder::core::wire;
  std::unordered_map<std::uint64_t, std::uint64_t> ids;
  for (const auto& [id, payload] : mget_requests_) {
    ids[id] = wire::get_arr(wire::unpack(payload), "ids").size();
  }
  std::vector<Span> out = spans_;
  for (Span& s : out) {
    if (auto it = ids.find(s.id); s.cloud && it != ids.end()) s.items = it->second;
  }
  return out;
}

Metrics derive_layer_metrics(const TraceInputs& in) {
  const std::vector<Span>& spans = *in.spans;
  Metrics m;
  auto put = [&](const std::string& name, double value, const char* unit) {
    m[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
  };

  // Times are scaled to the reference host speed (bench.hpp): op spans and
  // their cloud spans by the op's own probe; perf-registry totals and cloud
  // calls no op claims by the run's latency-weighted scale.
  struct PerOp {
    OpClass cls = OpClass::kWrite;
    double latency_us = 0;  // reference speed
    double scale = 1;
    std::vector<std::pair<std::int64_t, std::int64_t>> cloud;
  };
  std::unordered_map<std::uint64_t, PerOp> ops;
  double measured_sum = 0, reference_sum = 0, measured_cls[kOpClasses] = {};
  for (const Span& s : spans) {
    if (s.cloud) continue;
    const double measured = s.latency_us;
    measured_cls[static_cast<int>(s.cls)] += measured;
    PerOp& o = ops[s.id];
    o.cls = s.cls;
    o.scale = at_reference_speed(1.0, s.probe_us);
    o.latency_us = measured * o.scale;
    measured_sum += measured;
    reference_sum += o.latency_us;
  }
  const double run_scale = measured_sum > 0 ? reference_sum / measured_sum : 1;

  struct PerClass {
    double n = 0, latency = 0, busy = 0, covered = 0, trips = 0, out = 0, in = 0;
  };
  PerClass pc[kOpClasses];
  std::map<std::string, std::pair<double, double>> method;  // calls, busy_us
  double index_search_busy = 0, mget_busy = 0, mget_ids = 0;
  for (const Span& s : spans) {
    if (!s.cloud) continue;
    auto it = s.op != 0 ? ops.find(s.op) : ops.end();
    const double scale = it != ops.end() ? it->second.scale : run_scale;
    const double d = scale * static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    PerClass& c = pc[static_cast<int>(s.cls)];
    c.busy += d;
    c.trips += 1;
    c.out += static_cast<double>(s.bytes_out);
    c.in += static_cast<double>(s.bytes_in);
    auto& [calls, busy] = method[s.name];
    calls += 1;
    busy += d;
    if (is_index_search(s.name)) index_search_busy += d;
    if (std::strcmp(s.name, "doc.mget") == 0) {
      mget_busy += d;
      mget_ids += static_cast<double>(s.items);
    }
    if (it != ops.end()) {
      it->second.cloud.emplace_back(s.start_ns, s.end_ns);
    } else {
      c.covered += d;  // no op to overlap with: counts as covered once
    }
  }
  for (auto& [id, o] : ops) {
    PerClass& c = pc[static_cast<int>(o.cls)];
    c.n += 1;
    c.latency += o.latency_us;
    c.covered += o.scale * covered_us(o.cloud);
  }

  auto perf_total = [&](auto&& keep) {  // reference-speed µs
    double total = 0;
    for (const auto& [key, stats] : in.perf_after) {
      if (keep(key)) total += delta(in.perf_before, in.perf_after, key).total_us;
    }
    return run_scale * total;
  };
  auto is_stage = [](const std::string& series) { return series.rfind("core.", 0) == 0; };

  double max_residual = 0;
  for (int i = 0; i < kOpClasses; ++i) {
    const auto cls = static_cast<OpClass>(i);
    const std::string k = class_name(cls);
    const PerClass& c = pc[i];
    const double latency = ratio(c.latency, c.n);
    const double busy = ratio(c.busy, c.n);
    const double self = latency - ratio(c.covered, c.n);
    put("op.latency_us." + k, latency, "us");
    put("gateway.self_us." + k, self, "us");
    put("cloud.busy_us." + k, busy, "us");
    put("net.round_trips." + k, ratio(c.trips, c.n), "count");
    put("net.bytes_out." + k, ratio(c.out, c.n), "bytes");
    put("net.bytes_in." + k, ratio(c.in, c.n), "bytes");

    // Ledger: traced self + cloud busy against the untraced mean latency.
    const double untraced = in.untraced->timings.mean_us(cls);
    const double residual = 100.0 * ratio(untraced - (self + busy), untraced);
    put("ledger.residual_pct." + k, residual, "%");
    max_residual = std::max(max_residual, std::fabs(residual));

    const double staged = perf_total([&](const auto& key) {
      return is_stage(key.first) && in_class(key.second, cls);
    });
    // Both sides on the run's scale: stage totals cannot be split per op.
    put("core.unstaged_us." + k, ratio(run_scale * measured_cls[i] - staged, c.n), "us");
  }
  put("ledger.max_abs_residual_pct", max_residual, "%");

  const double n_write = pc[0].n, n_read = pc[1].n, n_agg = pc[2].n;
  auto stage_us = [&](const char* stage, OpClass cls) {
    return perf_total([&](const auto& key) {
      return key.first == stage && in_class(key.second, cls);
    });
  };
  put("core.store_us.write", ratio(stage_us("core.store", OpClass::kWrite), n_write), "us");
  put("core.index_us.write", ratio(stage_us("core.index", OpClass::kWrite), n_write), "us");
  put("core.index_us.read", ratio(stage_us("core.index", OpClass::kRead), n_read), "us");
  const double resolve_total = stage_us("core.resolve", OpClass::kRead);
  put("core.resolve_us.read", ratio(resolve_total, n_read), "us");
  put("core.verify_us.read", ratio(stage_us("core.verify", OpClass::kRead), n_read), "us");
  put("core.aggregate_us.agg", ratio(stage_us("core.aggregate", OpClass::kAgg), n_agg), "us");

  auto per_call = [&](const char* tactic, TacticOperation op) {
    const Delta d = delta(in.perf_before, in.perf_after, {tactic, op});
    return run_scale * ratio(d.total_us, static_cast<double>(d.count));
  };
  put("tactic.DET.insert_us", per_call("DET", TacticOperation::kInsert), "us");
  put("tactic.Mitra.insert_us", per_call("Mitra", TacticOperation::kInsert), "us");
  put("tactic.Paillier.insert_us", per_call("Paillier", TacticOperation::kInsert), "us");
  put("tactic.Paillier.average_us", per_call("Paillier", TacticOperation::kAverage), "us");
  const double search_total = perf_total([&](const auto& key) {
    return !is_stage(key.first) && is_search(key.second);
  });
  put("tactic.search_us.read", ratio(search_total, n_read), "us");

  auto method_busy = [&](const char* name) {
    auto it = method.find(name);
    return it == method.end() ? 0.0 : ratio(it->second.second, it->second.first);
  };
  for (const char* name : {"doc.put", "doc.mget", "agg.insert", "agg.sum"}) {
    put(std::string("cloud.busy_us.") + name, method_busy(name), "us");
  }
  const double mget_calls = method.count("doc.mget") ? method["doc.mget"].first : 0;
  put("cloud.calls.doc.mget", ratio(mget_calls, n_read), "count");
  put("cloud.busy_us.index_search", ratio(index_search_busy, n_read), "us");

  // Gateway-side document decryption: resolve stage minus its doc.mget wait.
  const double returned = static_cast<double>(in.traced->docs_returned);
  put("crypto.resolve_us_per_doc", ratio(resolve_total - mget_busy, returned), "us");
  put("core.verify.keep_ratio", ratio(returned, mget_ids), "ratio");

  put("setup.round_trips", static_cast<double>(in.setup_round_trips), "count");
  const double traced_ops_s = in.traced->ops_s, untraced_ops_s = in.untraced->ops_s;
  put("trace.ops_s", traced_ops_s, "1/s");
  put("trace.untraced_ops_s", untraced_ops_s, "1/s");
  put("trace.overhead_pct", 100.0 * (ratio(untraced_ops_s, traced_ops_s) - 1.0), "%");
  return m;
}

void write_trace_file(const std::string& path, const std::string& workload,
                      std::uint64_t seed, const TraceInputs& in, const Metrics& layer,
                      const Metrics& extra) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace file %s\n", path.c_str());
    return;
  }
  char buf[256];
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed << ",\n\"metrics\":{";
  bool first = true;
  for (const Metrics* ms : {&layer, &extra}) {
    for (const auto& [name, metric] : *ms) {
      std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    first ? "" : ",", name.c_str(), metric.value, metric.unit.c_str());
      out << buf;
      first = false;
    }
  }
  out << "},\n\"perf_delta\":[";
  first = true;
  for (const auto& [key, stats] : in.perf_after) {
    const Delta d = delta(in.perf_before, in.perf_after, key);
    if (d.count == 0) continue;
    std::snprintf(buf, sizeof buf, "%s{\"series\":\"%s\",\"op\":\"%s\",\"count\":%llu,\"total_us\":%.3f}",
                  first ? "" : ",", key.first.c_str(),
                  datablinder::schema::to_string(key.second).c_str(),
                  static_cast<unsigned long long>(d.count), d.total_us);
    out << buf;
    first = false;
  }
  out << "],\n\"spans\":[\n";
  first = true;
  for (const Span& s : *in.spans) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"layer\":\"%s\",\"name\":\"%s\","
                  "\"class\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"bytes_out\":%llu,"
                  "\"bytes_in\":%llu,\"items\":%llu,\"probe_us\":%.2f}",
                  first ? "" : ",\n", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op), s.cloud ? "cloud" : "op", s.name,
                  class_name(s.cls), static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<unsigned long long>(s.bytes_out),
                  static_cast<unsigned long long>(s.bytes_in),
                  static_cast<unsigned long long>(s.items), s.probe_us);
    out << buf;
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
