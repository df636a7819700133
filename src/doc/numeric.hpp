// Order-preserving numeric normalization shared by the OPE, ORE and
// RangeBRC tactics (lives in doc/, beside the Value it encodes).
//
// Field values (int or double) map to uint64 keys whose unsigned order
// equals the numeric order, using the IEEE-754 total-order bit trick. The
// mapping is invertible so the gateway can decode OPE min/max results.
#pragma once

#include <bit>
#include <cstdint>

#include "common/status.hpp"
#include "doc/value.hpp"

namespace datablinder::doc {

inline std::uint64_t ordered_key(const doc::Value& v) {
  if (v.type() != doc::ValueType::kInt && v.type() != doc::ValueType::kDouble) {
    throw_error(ErrorCode::kInvalidArgument,
                "range tactics require numeric fields, got " + v.to_display());
  }
  const double d = v.as_double();
  const auto bits = std::bit_cast<std::uint64_t>(d);
  constexpr std::uint64_t kMsb = 1ULL << 63;
  return (bits & kMsb) ? ~bits : (bits | kMsb);
}

inline double ordered_key_inverse(std::uint64_t key) {
  constexpr std::uint64_t kMsb = 1ULL << 63;
  const std::uint64_t bits = (key & kMsb) ? (key & ~kMsb) : ~key;
  return std::bit_cast<double>(bits);
}

}  // namespace datablinder::doc
