// DataBlinder benchmark driver.
//
//   perfbench --workload fig5-1u|fig5-4u|fhir-analytics --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 builds the plain stack (three times, for the set-up time),
// replays the seeded sequence and prints the end-to-end metrics. --trace 1
// replays the same sequence on a plain and a traced stack (in lockstep with
// one user) and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "trace.hpp"

using namespace perfbench;

namespace {

constexpr int kSetups = 3;  // at least; one per timed pass
constexpr double kLedgerLimitPct = 5.0;
constexpr std::size_t kPaperPrefix = 3;  // the Figure 5 replay runs 1/3 of the sequence

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::max(1, std::atoi(v.c_str()));
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Oracle preload_oracle(const Inputs& in) {
  Oracle o;
  for (const auto& d : in.preload) o.put(d);
  return o;
}

void print_metric(const std::string& name, const Metric& m, const std::string& note = {}) {
  std::printf("  %-32s %14.4f %-6s%s\n", name.c_str(), m.value, m.unit.c_str(), note.c_str());
}

void print_failures(const RunResult& r) {
  for (const auto& why : r.failures) std::printf("FAILED: %s\n", why.c_str());
}

int emit_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void print_header(const Args& a, const WorkloadSpec& spec, const Inputs& in) {
  std::printf("perfbench %s: seed %llu, %zu user(s), %zu preloaded docs, %zu ops, "
              "channel delay 0 us\n",
              spec.name.c_str(), static_cast<unsigned long long>(a.seed), spec.users,
              in.preload.size(), in.total_ops());
}

/// The timing and count metrics of one timed pass; `notes` gets the
/// sample counts.
Metrics pass_metrics(const RunResult& r, const Stack& st, const Oracle& oracle, double ops,
                     std::map<std::string, std::string>& notes) {
  Metrics m;
  m["ops_s"] = {r.ops_s, "1/s"};
  for (int c = 0; c < kOpClasses; ++c) {
    const std::string k = class_name(static_cast<OpClass>(c));
    const auto& v = r.timings.latency_us[c];
    m[k + "_p50_us"] = {percentile(v, 0.50), "us"};
    m[k + "_p99_us"] = {percentile(v, 0.99), "us"};
    const auto rank99 = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(v.size())));
    notes[k + "_p50_us"] = "  n=" + std::to_string(v.size());
    notes[k + "_p99_us"] = "  n=" + std::to_string(v.size()) + ", " +
                           std::to_string(v.size() - std::min(v.size(), rank99)) + " beyond";
  }
  m["storage_expansion"] = {static_cast<double>(st.node.storage_bytes()) /
                                static_cast<double>(oracle.plaintext_bytes()),
                            "ratio"};
  m["wire_bytes_per_op"] = {static_cast<double>(r.bytes) / ops, "bytes"};
  m["round_trips_per_op"] = {static_cast<double>(r.round_trips) / ops, "count"};
  return m;
}

int end_to_end(const Args& a) {
  const WorkloadSpec spec = workload_spec(a.workload);
  const Inputs in = make_inputs(spec, a.seed, a.seconds);
  print_header(a, spec, in);

  // Set-ups, one stack alive at a time; the first spec.passes of them also
  // run the timed sequence.
  const int setups = std::max(kSetups, spec.passes);
  std::vector<double> setup_s;  // at the reference speed
  std::vector<Metrics> passes;
  std::map<std::string, std::string> notes;
  std::size_t attempted = 0, failed = 0;
  double probe_sum = 0, rss_mb = 0;
  for (int i = 0; i < setups; ++i) {
    const SetupResult s = set_up(spec, in, nullptr);
    setup_s.push_back(s.reference_s);
    if (i >= spec.passes) continue;
    Oracle oracle = preload_oracle(in);
    RunResult r = std::move(run_sequence({{s.stack.get(), nullptr}}, in, oracle)[0]);
    check_final_state(*s.stack, oracle, r);
    passes.push_back(pass_metrics(r, *s.stack, oracle, static_cast<double>(in.total_ops()), notes));
    attempted += r.attempted;
    failed += r.failed;
    probe_sum += r.timings.mean_probe_us;
    print_failures(r);
    // One set-up and one timed pass; later set-ups only reuse freed memory.
    if (i == 0) rss_mb = peak_rss_mb();
  }

  Metrics m;
  for (const auto& [name, metric] : passes[0]) {
    std::vector<double> v;
    for (const Metrics& p : passes) v.push_back(p.at(name).value);
    m[name] = {median(v), metric.unit};
    if (passes.size() > 1) notes[name] += "  median of " + std::to_string(passes.size()) + " passes";
  }
  m["setup_s"] = {median(setup_s), "s"};
  m["peak_rss_mb"] = {rss_mb, "MB"};
  char range[64];
  std::snprintf(range, sizeof range, " (%.3f..%.3f)",
                *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
  notes["setup_s"] = "  median of " + std::to_string(setups) + range;

  // Write tails mostly time executor hand-offs to workers on other cores,
  // whose clock the probe does not see: too unsteady on a shared host to
  // gate, so printed only.
  const Metric write_tail = m["write_p99_us"];
  m.erase("write_p99_us");
  for (const auto& [name, metric] : m) print_metric(name, metric, notes[name]);
  print_metric("write_p99_us", write_tail, notes["write_p99_us"] + " (not gated)");
  std::printf("  times at reference speed (probe %.0f us); mean probe this run %.1f us\n",
              kReferenceProbeUs, probe_sum / static_cast<double>(passes.size()));
  std::printf("  ops attempted %zu, failed %zu\n", attempted, failed);
  return emit_result(failed == 0, attempted, failed, m);
}

int traced(const Args& a) {
  const WorkloadSpec spec = workload_spec(a.workload);
  const Inputs in = make_inputs(spec, a.seed, a.seconds);
  print_header(a, spec, in);

  // The same sequence on a plain stack is the reference for the overhead
  // and the ledger. With one user both stacks run in lockstep.
  Tracer tracer(spec.users == 1);
  SetupResult plain_stack = set_up(spec, in, nullptr);
  SetupResult s = set_up(spec, in, &tracer);
  TraceInputs ti;
  ti.perf_before = s.stack->gateway->perf().snapshot();
  RunResult plain, r;
  Oracle oracle = preload_oracle(in);
  tracer.enable(true);
  if (spec.users == 1) {
    auto both = run_sequence({{plain_stack.stack.get(), nullptr}, {s.stack.get(), &tracer}},
                             in, oracle);
    plain = std::move(both[0]);
    r = std::move(both[1]);
  } else {
    Oracle plain_oracle = preload_oracle(in);
    plain = std::move(run_sequence({{plain_stack.stack.get(), nullptr}}, in, plain_oracle)[0]);
    r = std::move(run_sequence({{s.stack.get(), &tracer}}, in, oracle)[0]);
  }
  tracer.enable(false);
  ti.perf_after = s.stack->gateway->perf().snapshot();
  check_final_state(*plain_stack.stack, oracle, plain);
  check_final_state(*s.stack, oracle, r);
  plain_stack.stack.reset();
  const std::vector<Span> spans = tracer.spans();
  ti.spans = &spans;
  ti.untraced = &plain;
  ti.traced = &r;
  ti.setup_round_trips = s.round_trips;
  const Metrics layer = derive_layer_metrics(ti);

  std::size_t attempted = plain.attempted + r.attempted;
  std::size_t failed = plain.failed + r.failed;

  // Not gated: context printed beside the per-layer metrics.
  Metrics extra;
  double proxy_bytes = 0;
  for (const Span& sp : spans) {
    if (sp.cloud) proxy_bytes += static_cast<double>(sp.bytes_out + sp.bytes_in);
  }
  extra["check.proxy_wire_bytes"] = {proxy_bytes, "bytes"};
  extra["check.channel_wire_bytes"] = {static_cast<double>(r.bytes), "bytes"};
  // The proxy frames requests and responses as the channel counts them, so
  // the spans must account for every byte the channel carried.
  ++attempted;
  if (proxy_bytes != static_cast<double>(r.bytes)) {
    ++failed;
    std::printf("FAILED: traced spans carry %.0f wire bytes, the channel %llu\n", proxy_bytes,
                static_cast<unsigned long long>(r.bytes));
  }
  if (spec.name == "fig5-1u") {
    // S_C is the untraced pass over the same prefix of the sequence.
    const std::size_t prefix = in.total_ops() / kPaperPrefix;
    const PaperReplay p = replay_paper_scenarios(in, prefix);
    const std::vector<Sample> sc(plain.samples.begin(),
                                 plain.samples.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(prefix, plain.samples.size())));
    const double sc_ops_s = Timings::of(sc).ops_s();
    attempted += 2 * prefix;
    failed += p.mismatches;
    extra["paper.sa_ops_s"] = {p.sa_ops_s, "1/s"};
    extra["paper.sb_ops_s"] = {p.sb_ops_s, "1/s"};
    extra["paper.sc_ops_s"] = {sc_ops_s, "1/s"};
    extra["paper.sb_over_sa"] = {100.0 * (1.0 - p.sb_ops_s / p.sa_ops_s), "%"};
    extra["paper.sc_over_sb"] = {100.0 * (1.0 - sc_ops_s / p.sb_ops_s), "%"};
  }

  std::printf("per-layer metrics (traced run):\n");
  for (const auto& [name, metric] : layer) print_metric(name, metric);
  std::printf("context (not gated):\n");
  for (const auto& [name, metric] : extra) print_metric(name, metric);
  if (spec.name == "fig5-1u") {
    std::printf(
        "  Figure 5 reproduction comparison (does not gate): throughput loss S_A->S_B "
        "%.1f%% [paper ~44%%], S_B->S_C %.1f%% [paper ~1.4%%]. S_B's search fetches one "
        "doc.get per id; S_C batches into one doc.mget.\n",
        extra["paper.sb_over_sa"].value, extra["paper.sc_over_sb"].value);
  }
  const double residual = layer.at("ledger.max_abs_residual_pct").value;
  std::printf("  ledger: traced gateway.self_us + cloud.busy_us vs untraced latency, "
              "max |residual| %.2f%% (limit %.0f%% with one user): %s\n",
              residual, kLedgerLimitPct,
              spec.users > 1 ? "not checked" : residual <= kLedgerLimitPct ? "ok" : "OVER");
  std::printf("  ops attempted %zu, failed %zu\n", attempted, failed);
  print_failures(plain);
  print_failures(r);

  if (!a.trace_out.empty()) write_trace_file(a.trace_out, spec.name, a.seed, ti, layer, extra);
  return emit_result(failed == 0, attempted, failed, layer);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    return a.trace ? traced(a) : end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
