// Plaintext reference model: the answers every gateway result must match.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "core/tactics/paillier_tactic.hpp"
#include "doc/binary_codec.hpp"

namespace perfbench {

namespace {
bool field_equals(const Document& d, const std::string& field, const Value& v) {
  return d.has(field) && d.at(field) == v;
}
}  // namespace

const Document* Oracle::find(const DocId& id) const {
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : &it->second;
}

std::vector<DocId> Oracle::equal(const std::string& field, const Value& v) const {
  std::vector<DocId> out;
  for (const auto& [id, d] : docs_) {
    if (field_equals(d, field, v)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DocId> Oracle::conjunction(const FieldBoolQuery& q) const {
  std::vector<DocId> out;
  for (const auto& [id, d] : docs_) {
    const bool any = std::any_of(q.dnf.begin(), q.dnf.end(), [&](const auto& conj) {
      return std::all_of(conj.begin(), conj.end(), [&](const auto& t) {
        return field_equals(d, t.field, t.value);
      });
    });
    if (any) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DocId> Oracle::range(const std::string& field, const Value& lo,
                                 const Value& hi) const {
  std::vector<DocId> out;
  const std::int64_t a = lo.as_int(), b = hi.as_int();
  for (const auto& [id, d] : docs_) {
    if (!d.has(field)) continue;
    const std::int64_t x = d.at(field).as_int();
    if (a <= x && x <= b) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t fixed_point(const Value& v) {
  return std::llround(v.as_double() *
                      static_cast<double>(datablinder::core::PaillierTactic::kFixedPointScale));
}

double Oracle::average(const std::string& field) const {
  std::int64_t sum = 0;
  std::size_t n = 0;
  for (const auto& [id, d] : docs_) {
    if (!d.has(field)) continue;
    sum += fixed_point(d.at(field));
    ++n;
  }
  if (n == 0) return 0;
  return static_cast<double>(sum) /
         static_cast<double>(datablinder::core::PaillierTactic::kFixedPointScale) /
         static_cast<double>(n);
}

std::size_t Oracle::plaintext_bytes() const {
  std::size_t n = 0;
  for (const auto& [id, d] : docs_) n += datablinder::doc::encode_document(d).size();
  return n;
}

bool check_docs(const Oracle& ref, const std::vector<Document>& docs,
                std::vector<DocId> expected, std::string* why) {
  std::vector<DocId> got;
  got.reserve(docs.size());
  for (const Document& d : docs) {
    const Document* want = ref.find(d.id);
    if (want == nullptr || !(*want == d)) {
      *why = "document " + d.id + " differs from the reference";
      return false;
    }
    got.push_back(d.id);
  }
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  if (got != expected) {
    *why = "returned " + std::to_string(got.size()) + " ids, reference has " +
           std::to_string(expected.size());
    return false;
  }
  return true;
}

bool close_enough(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

}  // namespace perfbench
