// The hex codec used for key material, document ids and debugging.
#pragma once

#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace datablinder {

/// Lowercase hex encoding.
std::string hex_encode(BytesView b);

/// Decodes a hex string (case-insensitive). Throws std::invalid_argument on
/// odd length or non-hex characters.
Bytes hex_decode(std::string_view s);

}  // namespace datablinder
