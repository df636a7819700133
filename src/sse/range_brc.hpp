// RangeBRC — range queries over SSE via dyadic intervals and best range
// covers (the construction family of Faber et al., "Rich Queries on
// Encrypted Data", which the paper cites as [22], and Demertzis et al.'s
// practical range search).
//
// Every indexed value x is inserted under one keyword per dyadic level:
// level L's keyword is the (64-L)-bit prefix of x, i.e. the aligned
// interval of size 2^L containing x. A range [lo, hi] is answered by
// computing its *best range cover* — the minimal set of dyadic intervals
// that exactly tiles it (at most 2 per level, ~126 worst case) — and
// running one single-keyword SSE search per cover node.
//
// Leakage: the access pattern of interval keywords — strictly less than
// order-revealing schemes: the server never learns how two stored values
// compare, only which encrypted interval buckets a query touched
// (protection Class 3, "predicates"). Cost: 64 index entries per value and
// O(log D) searches per query — the trade-off measured by
// bench_ablation_ranges.
//
// The encrypted-index machinery is Mitra's (forward-private updates, lazy
// deletes); this header adds the dyadic encoding and the cover algorithm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/secret.hpp"
#include "sse/mitra.hpp"

namespace datablinder::sse {

/// One dyadic interval: the values whose top (64-level) bits equal prefix.
/// level 0 is a single point; level 63 is half the domain.
struct DyadicInterval {
  std::uint8_t level = 0;
  std::uint64_t prefix = 0;  // value >> level

  bool operator==(const DyadicInterval&) const = default;

  std::uint64_t lo() const noexcept { return prefix << level; }
  std::uint64_t hi() const noexcept {
    return (prefix << level) | ((level == 0) ? 0 : ((std::uint64_t{1} << level) - 1));
  }

  /// Stable keyword encoding for the SSE index.
  std::string keyword(const std::string& scope) const;
};

/// All 64 dyadic intervals containing `x` (levels 0..63).
std::vector<DyadicInterval> dyadic_path(std::uint64_t x);

/// Minimal dyadic tiling of [lo, hi] (inclusive). Exact: the union of the
/// returned intervals equals [lo, hi] with no overlap.
std::vector<DyadicInterval> best_range_cover(std::uint64_t lo, std::uint64_t hi);

/// Client: a thin composition over the Mitra construction — one logical
/// Mitra keyword per dyadic interval.
class RangeBrcClient {
 public:
  explicit RangeBrcClient(BytesView key, std::string scope);
  explicit RangeBrcClient(const SecretBytes& key, std::string scope);

  /// 64 update tokens (one per level) for adding/removing `x`.
  std::vector<MitraUpdateToken> update(UpdateOp op, std::uint64_t x, const DocId& id);

  /// Search tokens for every cover node of [lo, hi], paired with the
  /// keyword needed to resolve the responses.
  struct CoverQuery {
    std::vector<std::string> keywords;        // aligned with tokens
    std::vector<MitraSearchToken> tokens;
  };
  CoverQuery range_query(std::uint64_t lo, std::uint64_t hi) const;

  /// Resolves one cover node's response.
  std::vector<DocId> resolve(const std::string& keyword,
                             const std::vector<Bytes>& values) const;

  /// State pass-through for gateway persistence (Mitra's counters).
  std::uint64_t counter(const std::string& keyword) const {
    return mitra_.counter(keyword);
  }
  void restore_counter(const std::string& keyword, std::uint64_t count) {
    mitra_.restore_counter(keyword, count);
  }

 private:
  std::string scope_;
  MitraClient mitra_;
};

}  // namespace datablinder::sse
