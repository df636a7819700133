// Seeded inputs: the preload corpus, the documents written during the run
// and every query. Categorical fields are balanced (each status, code and
// subject value appears equally often, in seeded order), so result sizes
// and therefore costs are the same for every seed.
#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "fhir/observation.hpp"

namespace perfbench {

using datablinder::DetRng;
using datablinder::core::FieldTerm;

namespace {

// The value pools of fhir::ObservationGenerator.
constexpr std::array<const char*, 4> kStatuses = {"final", "preliminary", "amended",
                                                  "corrected"};
constexpr std::array<const char*, 8> kCodes = {
    "glucose",    "cholesterol", "heart-rate", "blood-pressure",
    "hemoglobin", "creatinine",  "sodium",     "potassium"};
constexpr std::array<const char*, 16> kSubjects = {
    "John Doe",      "Jane Roe",       "Alice Martin", "Bob Janssens",
    "Carla Peeters", "David Maes",     "Emma Jacobs",  "Frank Willems",
    "Grace Claes",   "Henry Goossens", "Iris Wouters", "Jack Mertens",
    "Karen Dubois",  "Leo Lambert",    "Mia Dupont",   "Noah Simon"};

constexpr std::int64_t kHalfDay = 12 * 3600;

template <typename T>
void shuffle(std::vector<T>& v, DetRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.uniform(i)]);
}

/// n slots holding 0..k-1 equally often, in seeded order.
std::vector<std::size_t> balanced(std::size_t n, std::size_t k, DetRng& rng) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i % k;
  shuffle(v, rng);
  return v;
}

class DocSource {
 public:
  explicit DocSource(std::uint64_t seed) : gen_(seed ^ 0x5DEECE66DULL), rng_(seed) {}

  /// n fresh observations with unique ids and balanced categories.
  std::vector<Document> make(std::size_t n) {
    const auto st = balanced(n, kStatuses.size(), rng_);
    const auto co = balanced(n, kCodes.size(), rng_);
    const auto su = balanced(n, kSubjects.size(), rng_);
    std::vector<Document> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      Document& d = out[i];
      d = gen_.next();
      d.id = fresh_id();
      d.set("status", Value(kStatuses[st[i]]));
      d.set("code", Value(kCodes[co[i]]));
      d.set("subject", Value(kSubjects[su[i]]));
    }
    return out;
  }

  /// A new version of `d`: same id and categories, new measurement.
  Document revise(const Document& d) {
    Document next = gen_.next();
    for (const char* keep : {"status", "code", "subject", "identifier"}) {
      next.set(keep, d.at(keep));
    }
    next.id = d.id;
    return next;
  }

  DetRng& rng() { return rng_; }

 private:
  std::string fresh_id() {
    for (;;) {
      std::string id = datablinder::hex_encode(rng_.bytes(12));
      if (ids_.insert(id).second) return id;
    }
  }

  datablinder::fhir::ObservationGenerator gen_;
  DetRng rng_;
  std::set<std::string> ids_;
};

std::size_t round_to(double x, std::size_t block) {
  const auto blocks = static_cast<std::size_t>(std::llround(x / static_cast<double>(block)));
  return std::max<std::size_t>(1, blocks) * block;
}

/// §5.2 mix: write, read and aggregate 1:1:1, shuffled in blocks of three.
/// Reads search code, status and subject 2:1:1, so the read median falls
/// inside the code population rather than on a border between two.
void fig5_sequences(const WorkloadSpec& spec, std::size_t total, DocSource& src,
                    Inputs& in) {
  const std::size_t writes = total / 3;
  std::vector<Document> docs = src.make(writes);
  const auto fields = balanced(writes, 4, src.rng());
  const std::size_t per_user = total / spec.users;
  in.users.assign(spec.users, {});
  std::size_t w = 0, r = 0;
  for (std::size_t u = 0; u < spec.users; ++u) {
    auto& seq = in.users[u];
    for (std::size_t b = 0; b < per_user / 3; ++b) {
      std::vector<OpKind> block = {OpKind::kInsert, OpKind::kEqSearch, OpKind::kAverage};
      shuffle(block, src.rng());
      for (OpKind k : block) {
        Op op;
        op.kind = k;
        if (k == OpKind::kInsert) {
          op.doc = std::move(docs[w++]);
        } else if (k == OpKind::kEqSearch) {
          switch (fields[r++]) {
            case 0:
              op.field = "status";
              op.value = Value(kStatuses[src.rng().uniform(kStatuses.size())]);
              break;
            case 1:
              op.field = "subject";
              op.value = Value(kSubjects[src.rng().uniform(kSubjects.size())]);
              break;
            default:
              op.field = "code";
              op.value = Value(kCodes[src.rng().uniform(kCodes.size())]);
              break;
          }
        } else {
          op.field = "value";
        }
        seq.push_back(std::move(op));
      }
    }
  }
}

/// §5.1 analytics mix, blocks of 20: 5 point reads, 4 boolean, 7 range,
/// 2 updates, 2 averages (the read median falls inside the range
/// population; averages are frequent enough for a p99). Queries target live documents, so the generator tracks the
/// corpus as the sequence mutates it.
void analytics_sequence(std::size_t total, DocSource& src, Inputs& in) {
  std::vector<Document> live = in.preload;  // index-stable: updates keep ids
  auto pick = [&]() -> Document& { return live[src.rng().uniform(live.size())]; };

  in.users.assign(1, {});
  auto& seq = in.users[0];
  for (std::size_t b = 0; b < total / 20; ++b) {
    std::vector<OpKind> block;
    block.insert(block.end(), 5, OpKind::kPointRead);
    block.insert(block.end(), 4, OpKind::kBoolSearch);
    block.insert(block.end(), 7, OpKind::kRangeSearch);
    block.insert(block.end(), 2, OpKind::kUpdate);
    block.insert(block.end(), 2, OpKind::kAverage);
    shuffle(block, src.rng());
    for (OpKind k : block) {
      Op op;
      op.kind = k;
      switch (k) {
        case OpKind::kPointRead:
          op.id = pick().id;
          break;
        case OpKind::kBoolSearch: {
          const Document& d = pick();
          op.bool_query.dnf.push_back({FieldTerm{"status", d.at("status")},
                                       FieldTerm{"code", d.at("code")},
                                       FieldTerm{"value", d.at("value")}});
          break;
        }
        case OpKind::kRangeSearch: {
          const std::int64_t e = pick().at("effective").as_int();
          op.field = "effective";
          op.lo = Value(e - kHalfDay);
          op.hi = Value(e + kHalfDay);
          break;
        }
        case OpKind::kUpdate: {
          Document& d = pick();
          d = src.revise(d);
          op.doc = d;
          break;
        }
        default:
          op.field = "value";
          break;
      }
      seq.push_back(std::move(op));
    }
  }
}

}  // namespace

const char* class_name(OpClass c) {
  switch (c) {
    case OpClass::kWrite: return "write";
    case OpClass::kRead: return "read";
    default: return "agg";
  }
}

OpClass class_of(OpKind k) {
  switch (k) {
    case OpKind::kInsert:
    case OpKind::kUpdate:
      return OpClass::kWrite;
    case OpKind::kAverage:
      return OpClass::kAgg;
    default:
      return OpClass::kRead;
  }
}

WorkloadSpec workload_spec(const std::string& name) {
  if (name == "fig5-1u") return {name, false, 1, 2000, 375};
  if (name == "fig5-4u") return {name, false, 4, 2000, 375, 3};
  if (name == "fhir-analytics") return {name, true, 1, 2000, 1250};
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fig5-1u, fig5-4u, fhir-analytics)");
}

std::size_t Inputs::total_ops() const {
  std::size_t n = 0;
  for (const auto& u : users) n += u.size();
  return n;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, int seconds) {
  DocSource src(seed);
  Inputs in;
  in.preload = src.make(spec.preload);
  const double wanted = spec.ops_per_second * seconds;
  if (spec.analytics_schema) {
    analytics_sequence(round_to(wanted, 20), src, in);
  } else {
    fig5_sequences(spec, round_to(wanted, 3 * spec.users), src, in);
  }
  return in;
}

}  // namespace perfbench
