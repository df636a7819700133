// The timed phase: closed-loop users replay their op sequences through the
// gateway; every answer is checked against the plaintext reference.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/tactics/paillier_tactic.hpp"
#include "fhir/observation.hpp"
#include "probe.hpp"
#include "trace.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {

namespace core = datablinder::core;
using datablinder::schema::Aggregate;

namespace {

constexpr std::size_t kKeptFailures = 5;

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kInsert: return "insert";
    case OpKind::kUpdate: return "update";
    case OpKind::kEqSearch: return "equality_search";
    case OpKind::kPointRead: return "read";
    case OpKind::kBoolSearch: return "boolean_search";
    case OpKind::kRangeSearch: return "range_search";
    default: return "average";
  }
}

/// What one gateway call returned.
struct Answer {
  std::vector<Document> docs;
  core::AggregateResult agg;
};

Answer execute(core::Gateway& gw, const std::string& col, const Op& op, Document doc) {
  Answer a;
  switch (op.kind) {
    case OpKind::kInsert: gw.insert(col, std::move(doc)); break;
    case OpKind::kUpdate: gw.update(col, std::move(doc)); break;
    case OpKind::kEqSearch: a.docs = gw.equality_search(col, op.field, op.value); break;
    case OpKind::kPointRead: a.docs.push_back(gw.read(col, op.id)); break;
    case OpKind::kBoolSearch: a.docs = gw.boolean_search(col, op.bool_query); break;
    case OpKind::kRangeSearch: a.docs = gw.range_search(col, op.field, op.lo, op.hi); break;
    case OpKind::kAverage: a.agg = gw.aggregate(col, op.field, Aggregate::kAverage); break;
  }
  return a;
}

/// Exact check against the reference; applies writes to it.
bool check_exact(Oracle& ref, const Op& op, const Answer& a, std::string* why) {
  switch (op.kind) {
    case OpKind::kInsert:
    case OpKind::kUpdate:
      ref.put(op.doc);
      return true;
    case OpKind::kEqSearch:
      return check_docs(ref, a.docs, ref.equal(op.field, op.value), why);
    case OpKind::kPointRead:
      return check_docs(ref, a.docs, {op.id}, why);
    case OpKind::kBoolSearch:
      return check_docs(ref, a.docs, ref.conjunction(op.bool_query), why);
    case OpKind::kRangeSearch:
      return check_docs(ref, a.docs, ref.range(op.field, op.lo, op.hi), why);
    case OpKind::kAverage:
      if (a.agg.count == ref.size() && close_enough(a.agg.value, ref.average(op.field))) {
        return true;
      }
      *why = "average " + std::to_string(a.agg.value) + " over " +
             std::to_string(a.agg.count) + " docs, reference " +
             std::to_string(ref.average(op.field)) + " over " + std::to_string(ref.size());
      return false;
  }
  return false;
}

/// Answers under concurrent inserts (the fig5 mix). A search must return
/// only documents the run could have stored, unchanged and matching the
/// predicate, each once, and every preload match. An average must be the
/// fixed-point sum over the preload, the asking user's own earlier inserts
/// and some prefix of each other user's inserts: users insert one at a
/// time and agg.sum folds under the node's lock.
class ConcurrentChecker {
 public:
  explicit ConcurrentChecker(const Inputs& in) : preload_n_(in.preload.size()) {
    for (const auto& d : in.preload) {
      universe_.emplace(d.id, Entry{&d, true});
      preload_sum_ += fixed_point(d.at("value"));
    }
    for (const auto& seq : in.users) {
      auto& prefix = prefix_.emplace_back(1, 0);
      auto& before = inserts_before_.emplace_back();
      for (const auto& op : seq) {
        before.push_back(prefix.size() - 1);
        if (op.kind != OpKind::kInsert) continue;
        universe_.emplace(op.doc.id, Entry{&op.doc, false});
        prefix.push_back(prefix.back() + fixed_point(op.doc.at("value")));
      }
    }
  }

  /// Op `index` of user `user`'s sequence returned `a`.
  bool check(std::size_t user, std::size_t index, const Op& op, const Answer& a,
             std::string* why) const {
    if (op.kind == OpKind::kInsert) return true;
    if (op.kind == OpKind::kAverage) return average_ok(user, index, a.agg, why);
    std::size_t preload_hits = 0;
    std::vector<const std::string*> ids;
    for (const Document& d : a.docs) {
      auto it = universe_.find(d.id);
      if (it == universe_.end() || !(*it->second.doc == d) || !(d.at(op.field) == op.value)) {
        *why = "unexpected document " + d.id;
        return false;
      }
      preload_hits += it->second.preload ? 1 : 0;
      ids.push_back(&it->first);
    }
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      *why = "duplicate document";
      return false;
    }
    std::size_t want = 0;
    for (const auto& [id, e] : universe_) {
      if (e.preload && e.doc->at(op.field) == op.value) ++want;
    }
    if (preload_hits != want) {
      *why = "missing preload matches";
      return false;
    }
    return true;
  }

 private:
  struct Entry {
    const Document* doc;
    bool preload;
  };

  bool average_ok(std::size_t user, std::size_t index, const core::AggregateResult& agg,
                  std::string* why) const {
    const double exact = agg.value * static_cast<double>(agg.count) *
                         static_cast<double>(core::PaillierTactic::kFixedPointScale);
    const std::int64_t sum = std::llround(exact);
    const std::size_t own = inserts_before_[user][index];
    const auto others = static_cast<std::int64_t>(agg.count) -
                        static_cast<std::int64_t>(preload_n_ + own);
    if (std::fabs(exact - static_cast<double>(sum)) > 1e-3 || others < 0 ||
        !prefixes_reach(user, 0, others, sum - preload_sum_ - prefix_[user][own])) {
      *why = "average " + std::to_string(agg.value) + " over " + std::to_string(agg.count) +
             " docs is no sum of inserted prefixes";
      return false;
    }
    return true;
  }

  /// Whether users from `v` on, except `skip`, have insert prefixes of
  /// n documents in total with fixed-point sum s.
  bool prefixes_reach(std::size_t skip, std::size_t v, std::int64_t n, std::int64_t s) const {
    if (v == skip) ++v;
    std::size_t next = v + 1;
    if (next == skip) ++next;
    if (v >= prefix_.size()) return n == 0 && s == 0;
    const auto& p = prefix_[v];
    const auto most = std::min<std::int64_t>(n, static_cast<std::int64_t>(p.size()) - 1);
    if (next >= prefix_.size()) return n == most && p[static_cast<std::size_t>(n)] == s;
    for (std::int64_t k = 0; k <= most; ++k) {
      if (prefixes_reach(skip, next, n - k, s - p[static_cast<std::size_t>(k)])) return true;
    }
    return false;
  }

  std::unordered_map<std::string, Entry> universe_;
  std::size_t preload_n_;
  std::int64_t preload_sum_ = 0;
  std::vector<std::vector<std::int64_t>> prefix_;          // per user: sums of first k inserts
  std::vector<std::vector<std::size_t>> inserts_before_;   // per user, per op
};

/// One op as a user ran it, before it is timed and checked.
struct Done {
  std::size_t index = 0;  // in the user's sequence
  std::uint64_t span = 0;
  std::int64_t t0 = 0, t1 = 0;
  Answer answer;
  std::string error;
};

Done run_op(const Lane& lane, const Op& op, std::size_t index) {
  Done d;
  d.index = index;
  Document doc = op.doc;  // the gateway consumes its argument
  if (lane.tracer != nullptr) d.span = lane.tracer->begin_op(class_of(op.kind));
  d.t0 = now_ns();
  try {
    d.answer = execute(*lane.stack->gateway, lane.stack->collection, op, std::move(doc));
  } catch (const std::exception& e) {
    d.error = e.what();
  }
  d.t1 = now_ns();
  return d;
}

/// Records op `d` as timed in `sample`, then checks it.
template <typename Check>
void settle(const Lane& lane, const Op& op, const Done& d, const Sample& sample, RunResult& out,
            Check&& check) {
  ++out.attempted;
  if (lane.tracer != nullptr) {
    lane.tracer->end_op(d.span, sample, kind_name(op.kind), d.t0, d.t1, d.answer.docs.size());
  }
  if (!d.error.empty()) {
    out.fail(std::string(kind_name(op.kind)) + " threw: " + d.error);
    return;
  }
  out.samples.push_back(sample);
  if (op.kind != OpKind::kPointRead) out.docs_returned += d.answer.docs.size();
  std::string why;
  if (!check(op, d, &why)) out.fail(std::string(kind_name(op.kind)) + ": " + why);
}

void require_lanes(const std::vector<Lane>& lanes, const Inputs& in) {
  if (lanes.empty() || (in.users.size() > 1 && lanes.size() > 1)) {
    throw std::invalid_argument("run_sequence: one lane per user, or lanes with one user");
  }
}

}  // namespace

void RunResult::fail(std::string why) {
  ++failed;
  if (failures.size() < kKeptFailures) failures.push_back(std::move(why));
}

Timings Timings::of(const std::vector<Sample>& samples) {
  Timings t;
  double probe_sum = 0;
  for (const Sample& s : samples) {
    const int c = static_cast<int>(s.cls);
    ++t.ops[c];
    t.latency_us[c].push_back(s.reference_us());
    probe_sum += s.probe_us;
  }
  t.mean_probe_us = samples.empty() ? 0 : probe_sum / static_cast<double>(samples.size());
  return t;
}

double Timings::mean_us(OpClass c) const {
  const auto& v = latency_us[static_cast<int>(c)];
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Timings::ops_s() const {
  double busy_us = 0, n = 0;
  for (int c = 0; c < kOpClasses; ++c) {
    busy_us += static_cast<double>(ops[c]) * mean_us(static_cast<OpClass>(c));
    n += static_cast<double>(ops[c]);
  }
  return busy_us > 0 ? n / (busy_us / 1e6) : 0;
}

namespace {

/// One user on one or more lanes: each op runs on every lane in turn, the
/// first lane rotating so none always runs on caches the other warmed. The
/// process is sampled during ops and the user's thread probed between
/// them; the op is checked after its closing probe. Idle cores are kept
/// out of deep sleep throughout (KeepCoresAwake).
void run_one_user(const std::vector<Lane>& lanes, const std::vector<Op>& seq, Oracle& oracle,
                  std::vector<RunResult>& results) {
  auto check = [&](const Op& op, const Done& d, std::string* why) {
    return check_exact(oracle, op, d.answer, why);  // writes re-put the same document
  };
  const KeepCoresAwake awake;
  const SpeedSampler sampler;
  double probe_before = sampler.probe_us();
  for (std::size_t k = 0; k < seq.size(); ++k) {
    for (std::size_t j = 0; j < lanes.size(); ++j) {
      const std::size_t i = (k + j) % lanes.size();
      const Done d = run_op(lanes[i], seq[k], k);
      const double probe_after = sampler.probe_us();
      const SpeedReading during = sampler.reading(d.t0, d.t1);
      const Sample sample{class_of(seq[k].kind),
                          static_cast<double>(d.t1 - d.t0) / 1e3 - during.sampling_us,
                          interval_probe_us(during, {probe_before, probe_after})};
      settle(lanes[i], seq[k], d, sample, results[i], check);
      probe_before = probe_after;
    }
  }
}

/// Several users, one thread each, in epochs of kEpochOps ops per user
/// (ten blocks of the fig5 mix). All users open an epoch together at a
/// barrier and close it at another; the barriers' last arrival probes the
/// host speed for kWindowMs while no op is in flight, and the epoch is
/// scaled by the mean of its two windows. Answers are kept until the
/// closing barrier and checked there, so neither probes nor checks run
/// beside another user's op. Returns the epochs' wall time in seconds at
/// the reference speed.
double run_users(const Lane& lane, const Inputs& in, RunResult& r) {
  constexpr std::size_t kEpochOps = 30;
  constexpr double kWindowMs = 20;
  struct Epoch {
    std::int64_t t0 = 0, t1 = 0;
    double probe_open = 0, probe_close = 0;
  };
  std::size_t longest = 0;
  for (const auto& seq : in.users) longest = std::max(longest, seq.size());
  const std::size_t n_epochs = (longest + kEpochOps - 1) / kEpochOps;
  std::vector<Epoch> epochs(n_epochs);
  std::size_t opened = 0, closed = 0;
  std::barrier open(static_cast<std::ptrdiff_t>(in.users.size()), [&]() noexcept {
    Epoch& e = epochs[opened++];
    e.probe_open = window_probe_us(kWindowMs);
    e.t0 = now_ns();
  });
  std::barrier close(static_cast<std::ptrdiff_t>(in.users.size()), [&]() noexcept {
    Epoch& e = epochs[closed++];
    e.t1 = now_ns();
    e.probe_close = window_probe_us(kWindowMs);
  });

  const ConcurrentChecker checker(in);
  std::vector<RunResult> per_user(in.users.size());
  const KeepCoresAwake awake;
  {
    std::vector<std::jthread> threads;
    for (std::size_t u = 0; u < in.users.size(); ++u) {
      threads.emplace_back([&, u] {
        const std::vector<Op>& seq = in.users[u];
        auto check = [&](const Op& op, const Done& d, std::string* why) {
          return checker.check(u, d.index, op, d.answer, why);
        };
        std::vector<Done> done;
        for (std::size_t e = 0; e < n_epochs; ++e) {
          open.arrive_and_wait();
          for (std::size_t k = e * kEpochOps; k < std::min(seq.size(), (e + 1) * kEpochOps); ++k) {
            done.push_back(run_op(lane, seq[k], k));
          }
          close.arrive_and_wait();
          // A traced op's span closes here; no cloud call runs on this
          // thread until the next op opens a new one.
          const double probe = (epochs[e].probe_open + epochs[e].probe_close) / 2;
          for (const Done& d : done) {
            const Sample sample{class_of(seq[d.index].kind),
                                static_cast<double>(d.t1 - d.t0) / 1e3, probe};
            settle(lane, seq[d.index], d, sample, per_user[u], check);
          }
          done.clear();
        }
      });
    }
  }
  for (auto& u : per_user) {
    r.attempted += u.attempted;
    for (auto& why : u.failures) r.fail(std::move(why));
    r.failed += u.failed - u.failures.size();
    r.docs_returned += u.docs_returned;
    r.samples.insert(r.samples.end(), u.samples.begin(), u.samples.end());
  }
  double wall_s = 0;
  for (const Epoch& e : epochs) {
    wall_s += at_reference_speed(static_cast<double>(e.t1 - e.t0) / 1e9,
                                 (e.probe_open + e.probe_close) / 2);
  }
  return wall_s;
}

}  // namespace

std::vector<RunResult> run_sequence(const std::vector<Lane>& lanes, const Inputs& in,
                                    Oracle& oracle) {
  require_lanes(lanes, in);
  std::vector<RunResult> results(lanes.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stats0;  // bytes, round trips
  for (const Lane& l : lanes) {
    const auto& st = l.stack->channel.stats();
    stats0.emplace_back(st.bytes_sent + st.bytes_received, st.round_trips.load());
  }

  double wall_s = 0;
  if (in.users.size() == 1) {
    run_one_user(lanes, in.users[0], oracle, results);
  } else {
    wall_s = run_users(lanes[0], in, results[0]);
    for (const auto& seq : in.users) {
      for (const auto& op : seq) {
        if (op.kind == OpKind::kInsert) oracle.put(op.doc);
      }
    }
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    RunResult& r = results[i];
    const auto& st = lanes[i].stack->channel.stats();
    r.timings = Timings::of(r.samples);
    r.ops_s = in.users.size() == 1
                  ? r.timings.ops_s()
                  : (wall_s > 0 ? static_cast<double>(r.samples.size()) / wall_s : 0);
    r.bytes = st.bytes_sent + st.bytes_received - stats0[i].first;
    r.round_trips = st.round_trips - stats0[i].second;
  }
  return results;
}

void check_final_state(Stack& st, const Oracle& oracle, RunResult& r) {
  core::Gateway& gw = *st.gateway;
  std::vector<std::pair<std::string, Value>> queries;
  for (const auto& [id, d] : oracle.docs()) {
    for (const char* f : {"status", "code", "subject"}) {
      std::pair<std::string, Value> q{f, d.at(f)};
      if (std::find(queries.begin(), queries.end(), q) == queries.end()) queries.push_back(q);
    }
  }
  for (const auto& [field, value] : queries) {
    ++r.attempted;
    std::string why;
    try {
      if (!check_docs(oracle, gw.equality_search(st.collection, field, value),
                      oracle.equal(field, value), &why)) {
        r.fail("final " + field + ": " + why);
      }
    } catch (const std::exception& e) {
      r.fail("final " + field + " threw: " + e.what());
    }
  }
  ++r.attempted;
  try {
    const auto avg = gw.aggregate(st.collection, "value", Aggregate::kAverage);
    if (avg.count != oracle.size() || !close_enough(avg.value, oracle.average("value"))) {
      r.fail("final average differs from the reference");
    }
  } catch (const std::exception& e) {
    r.fail(std::string("final average threw: ") + e.what());
  }
}

PaperReplay replay_paper_scenarios(const Inputs& in, std::size_t ops) {
  namespace wl = datablinder::workload;
  PaperReplay out;
  auto replay = [&](wl::ScenarioApi& s) {
    Oracle ref;
    for (const auto& d : in.preload) {
      s.insert_document(d);
      ref.put(d);
    }
    std::vector<Sample> samples;
    double probe_before = speed_probe_us();
    const auto& seq = in.users.at(0);
    for (std::size_t i = 0; i < ops && i < seq.size(); ++i) {
      const Op& op = seq[i];
      std::size_t found = 0;
      double average = 0;
      const std::int64_t t0 = now_ns();
      if (op.kind == OpKind::kInsert) {
        s.insert_document(op.doc);
      } else if (op.kind == OpKind::kEqSearch) {
        found = s.equality_search(op.field, op.value);
      } else {
        average = s.aggregate_average(op.field);
      }
      const std::int64_t t1 = now_ns();
      const double probe_after = speed_probe_us();
      samples.push_back({class_of(op.kind), static_cast<double>(t1 - t0) / 1e3,
                         interval_probe_us({}, {probe_before, probe_after})});
      probe_before = probe_after;
      bool ok = true;
      if (op.kind == OpKind::kInsert) {
        ref.put(op.doc);
      } else if (op.kind == OpKind::kEqSearch) {
        ok = found == ref.equal(op.field, op.value).size();
      } else {
        ok = std::abs(average - ref.average(op.field)) <= 1e-6;
      }
      if (!ok) ++out.mismatches;
    }
    return Timings::of(samples).ops_s();
  };
  {
    wl::ScenarioHarness h;
    wl::ScenarioA a(h);
    out.sa_ops_s = replay(a);
  }
  {
    wl::ScenarioHarness h;
    wl::ScenarioB b(h);
    out.sb_ops_s = replay(b);
  }
  return out;
}

}  // namespace perfbench
