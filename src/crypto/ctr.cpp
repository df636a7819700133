#include "crypto/ctr.hpp"

#include <algorithm>
#include <cstring>

namespace datablinder::crypto {

// Reference CTR kernel: one portable block encryption per 16 bytes.
void portable::aes_ctr_xcrypt(const std::uint8_t* round_keys, std::size_t rounds,
                              const std::uint8_t counter0[16], std::uint8_t* data,
                              std::size_t len) {
  std::uint8_t counter[Aes::kBlockSize];
  std::memcpy(counter, counter0, Aes::kBlockSize);
  std::size_t offset = 0;
  while (offset < len) {
    std::uint8_t keystream[Aes::kBlockSize];
    std::memcpy(keystream, counter, Aes::kBlockSize);
    aes_encrypt_block(round_keys, rounds, keystream);
    const std::size_t take = std::min(len - offset, Aes::kBlockSize);
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= keystream[i];
    offset += take;
    for (std::size_t i = Aes::kBlockSize; i-- > 0;) {
      if (++counter[i] != 0) break;
    }
  }
}

Bytes aes_ctr(const Aes& aes, const std::array<std::uint8_t, Aes::kBlockSize>& counter0,
              BytesView data) {
  Bytes out(data.begin(), data.end());
  aes.ctr_xcrypt(counter0, out);
  return out;
}

}  // namespace datablinder::crypto
