#include "sse/range_brc.hpp"

#include <bit>

#include "common/hex.hpp"
#include "common/status.hpp"

namespace datablinder::sse {

std::string DyadicInterval::keyword(const std::string& scope) const {
  // "brc:<scope>:<level>:<prefix-hex>" — collision-free across levels.
  return "brc:" + scope + ":" + std::to_string(level) + ":" +
         hex_encode(be64(prefix));
}

std::vector<DyadicInterval> dyadic_path(std::uint64_t x) {
  std::vector<DyadicInterval> out;
  out.reserve(64);
  for (std::uint8_t level = 0; level < 64; ++level) {
    out.push_back({level, x >> level});
  }
  return out;
}

std::vector<DyadicInterval> best_range_cover(std::uint64_t lo, std::uint64_t hi) {
  require(lo <= hi, "best_range_cover: lo > hi");
  std::vector<DyadicInterval> out;
  // Greedy left-to-right tiling: at position `lo`, emit the largest aligned
  // dyadic block that starts at lo and does not overshoot hi.
  using U128 = unsigned __int128;
  U128 cursor = lo;
  const U128 end = static_cast<U128>(hi) + 1;  // exclusive
  while (cursor < end) {
    // Alignment bound: the block size must divide the cursor position.
    const unsigned align =
        cursor == 0 ? 64
                    : static_cast<unsigned>(
                          std::countr_zero(static_cast<std::uint64_t>(cursor)));
    // Size bound: the block must fit within the remaining span.
    const U128 remaining = end - cursor;
    unsigned fit = 0;
    while (fit < 64 && (static_cast<U128>(1) << (fit + 1)) <= remaining) ++fit;
    unsigned level = std::min(align, fit);
    if (level > 63) level = 63;  // keyword space covers levels 0..63
    out.push_back({static_cast<std::uint8_t>(level),
                   static_cast<std::uint64_t>(cursor) >> level});
    cursor += static_cast<U128>(1) << level;
  }
  return out;
}

RangeBrcClient::RangeBrcClient(BytesView key, std::string scope)
    : scope_(std::move(scope)), mitra_(key) {}

RangeBrcClient::RangeBrcClient(const SecretBytes& key, std::string scope)
    : scope_(std::move(scope)), mitra_(key) {}

std::vector<MitraUpdateToken> RangeBrcClient::update(UpdateOp op, std::uint64_t x,
                                                     const DocId& id) {
  std::vector<MitraUpdateToken> tokens;
  tokens.reserve(64);
  for (const DyadicInterval& node : dyadic_path(x)) {
    tokens.push_back(mitra_.update(op, node.keyword(scope_), id));
  }
  return tokens;
}

RangeBrcClient::CoverQuery RangeBrcClient::range_query(std::uint64_t lo,
                                                       std::uint64_t hi) const {
  CoverQuery q;
  for (const DyadicInterval& node : best_range_cover(lo, hi)) {
    const std::string kw = node.keyword(scope_);
    q.tokens.push_back(mitra_.search_token(kw));
    q.keywords.push_back(kw);
  }
  return q;
}

std::vector<DocId> RangeBrcClient::resolve(const std::string& keyword,
                                           const std::vector<Bytes>& values) const {
  return mitra_.resolve(keyword, values);
}

}  // namespace datablinder::sse
