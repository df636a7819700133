// ORE — order-revealing encryption, Lewi–Wu (CCS 2016) left/right block
// construction over 4-bit blocks.
//
// A *right* ciphertext (stored server-side) encodes for every block a
// permuted table of padded comparison trits. A *left* ciphertext (the query
// token) carries, per block, the PRF key that unpads exactly one table slot.
// `compare(left, right)` reveals only the order of the two plaintexts —
// nothing is comparable between two stored (right) ciphertexts, which is
// the "best possible" semantic-security-with-comparison notion the scheme
// targets. DataBlinder's range tactic stores right ciphertexts and issues
// left ciphertexts for the range endpoints.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/prf.hpp"

namespace datablinder::ppe {

enum class OreResult { kLess = 0, kEqual = 1, kGreater = 2 };

struct OreLeft {
  // Per block: PRF-derived unpad key (16 bytes) and permuted slot index.
  struct Block {
    Bytes pad_key;
    std::uint8_t slot;
  };
  std::vector<Block> blocks;

  Bytes serialize() const;
  static OreLeft deserialize(BytesView b);
};

struct OreRight {
  Bytes nonce;                           // per-ciphertext randomness
  std::vector<std::array<std::uint8_t, 16>> tables;  // one 16-slot trit table per block

  Bytes serialize() const;
  static OreRight deserialize(BytesView b);
};

class OreCipher {
 public:
  static constexpr std::size_t kBlockBits = 4;
  static constexpr std::size_t kSlots = 1u << kBlockBits;

  /// `bits` is the plaintext domain width (must be a multiple of 4, <= 64).
  OreCipher(BytesView key, std::string_view context, std::size_t bits = 64);
  OreCipher(const SecretBytes& key, std::string_view context, std::size_t bits = 64);

  OreCipher(const OreCipher&) = default;
  OreCipher& operator=(const OreCipher&) = default;
  /// The slot permutations are key-derived: wipe them on destruction.
  ~OreCipher();

  /// Query-side token for `plaintext`.
  OreLeft encrypt_left(std::uint64_t plaintext) const;

  /// Storage-side ciphertext for `plaintext` (probabilistic).
  OreRight encrypt_right(std::uint64_t plaintext) const;

  /// Order of the left plaintext relative to the right plaintext.
  static OreResult compare(const OreLeft& left, const OreRight& right);

  std::size_t num_blocks() const noexcept { return bits_ / kBlockBits; }

 private:
  // Pins the nonce of encrypt_right for the known-answer tests (ppe_test).
  friend struct OreKnownAnswerAccess;

  OreCipher(const crypto::PrfKey& master, std::string_view context, std::size_t bits);
  /// encrypt_right under a given 16-byte nonce. A reused nonce links right
  /// ciphertexts, so only the random-nonce form is public.
  OreRight encrypt_right(std::uint64_t plaintext, BytesView nonce) const;
  /// PRF(block || prefix || value); its first 16 bytes are the slot's pad key.
  crypto::PrfKey::Tag block_pad_tag(std::size_t block, std::uint64_t prefix,
                                    std::uint8_t value) const;

  crypto::PrfKey pad_prf_;  // pads comparison trits (hoisted HMAC schedule)
  // Keyed permutation of the 16 table slots, one per block. It depends only
  // on the key, so it is drawn once here instead of per encryption.
  std::vector<std::array<std::uint8_t, kSlots>> slot_perm_;
  std::size_t bits_;
};

}  // namespace datablinder::ppe
