// AES-CTR keystream mode (NIST SP 800-38A).
//
// Used directly by the SIV construction and as the confidentiality layer
// inside GCM (which is CTR with a GHASH tag). The keystream itself comes
// from the Aes object's kernels (Aes::ctr_xcrypt).
#pragma once

#include "common/bytes.hpp"
#include "crypto/aes.hpp"

namespace datablinder::crypto {

/// Returns `data` XORed with the CTR keystream. The 16-byte `counter0` is
/// the initial counter block; it is incremented big-endian per block.
Bytes aes_ctr(const Aes& aes, const std::array<std::uint8_t, Aes::kBlockSize>& counter0,
              BytesView data);

}  // namespace datablinder::crypto
