#include "ppe/ore.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace datablinder::ppe {

namespace {
constexpr std::size_t kPadKeySize = 16;

std::uint8_t trit_pad(BytesView pad_key, BytesView nonce) {
  return static_cast<std::uint8_t>(crypto::prf_mod(pad_key, nonce, 3));
}
}  // namespace

Bytes OreLeft::serialize() const {
  Bytes out = be32(static_cast<std::uint32_t>(blocks.size()));
  for (const auto& b : blocks) {
    append(out, b.pad_key);
    out.push_back(b.slot);
  }
  return out;
}

OreLeft OreLeft::deserialize(BytesView b) {
  require(b.size() >= 4, "OreLeft: truncated");
  const std::size_t n = read_be32(b);
  require(b.size() == 4 + n * (kPadKeySize + 1), "OreLeft: bad length");
  OreLeft out;
  out.blocks.resize(n);
  std::size_t off = 4;
  for (auto& blk : out.blocks) {
    blk.pad_key.assign(b.begin() + static_cast<std::ptrdiff_t>(off),
                       b.begin() + static_cast<std::ptrdiff_t>(off + kPadKeySize));
    off += kPadKeySize;
    blk.slot = b[off++];
  }
  return out;
}

Bytes OreRight::serialize() const {
  Bytes out = be32(static_cast<std::uint32_t>(tables.size()));
  append(out, nonce);
  for (const auto& t : tables) append(out, BytesView(t.data(), t.size()));
  return out;
}

OreRight OreRight::deserialize(BytesView b) {
  require(b.size() >= 4 + 16, "OreRight: truncated");
  const std::size_t n = read_be32(b);
  require(b.size() == 4 + 16 + n * OreCipher::kSlots, "OreRight: bad length");
  OreRight out;
  out.nonce.assign(b.begin() + 4, b.begin() + 20);
  out.tables.resize(n);
  std::size_t off = 20;
  for (auto& t : out.tables) {
    std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(off), OreCipher::kSlots, t.begin());
    off += OreCipher::kSlots;
  }
  return out;
}

OreCipher::OreCipher(BytesView key, std::string_view context, std::size_t bits)
    : OreCipher(crypto::PrfKey(key), context, bits) {}

OreCipher::OreCipher(const SecretBytes& key, std::string_view context, std::size_t bits)
    : OreCipher(crypto::PrfKey(key), context, bits) {}

OreCipher::OreCipher(const crypto::PrfKey& master, std::string_view context,
                     std::size_t bits)
    : pad_prf_(SecretBytes(master.prf_labeled("ore-prf", to_bytes(context)))), bits_(bits) {
  require(bits > 0 && bits <= 64 && bits % kBlockBits == 0,
          "OreCipher: bits must be a positive multiple of 4, <= 64");
  const crypto::PrfKey prp(SecretBytes(master.prf_labeled("ore-prp", to_bytes(context))));
  slot_perm_.resize(num_blocks());
  for (std::size_t block = 0; block < slot_perm_.size(); ++block) {
    // Keyed Fisher–Yates over the 16 slots, seeded per block. Deterministic
    // for a given key, so the left encryptor sees the same table.
    auto& perm = slot_perm_[block];
    std::iota(perm.begin(), perm.end(), 0);
    // The PRF output seeds the shuffle, so this stays a keyed PRP — the
    // generator is a deterministic expander here, not an entropy source.
    const std::uint64_t seed = read_be64(prp.tag_labeled("slot-perm", be64(block)));
    DetRng rng(seed);  // dblint:allow(rng): PRF-seeded keyed permutation
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.uniform(i + 1)]);
    }
  }
}

OreCipher::~OreCipher() {
  for (auto& perm : slot_perm_) secure_wipe(perm);
}

crypto::PrfKey::Tag OreCipher::block_pad_tag(std::size_t block, std::uint64_t prefix,
                                             std::uint8_t value) const {
  std::array<std::uint8_t, 17> input;  // be64(block) || be64(prefix) || value
  for (std::size_t i = 0; i < 8; ++i) {
    input[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(block) >> (56 - 8 * i));
    input[8 + i] = static_cast<std::uint8_t>(prefix >> (56 - 8 * i));
  }
  input[16] = value;
  return pad_prf_.tag(input);
}

OreLeft OreCipher::encrypt_left(std::uint64_t plaintext) const {
  const std::size_t nblocks = num_blocks();
  OreLeft out;
  out.blocks.resize(nblocks);
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < nblocks; ++i) {
    const unsigned shift = static_cast<unsigned>(bits_ - kBlockBits * (i + 1));
    const std::uint8_t xi = static_cast<std::uint8_t>((plaintext >> shift) & 0xf);
    const crypto::PrfKey::Tag tag = block_pad_tag(i, prefix, xi);
    out.blocks[i].pad_key.assign(tag.begin(), tag.begin() + kPadKeySize);
    out.blocks[i].slot = slot_perm_[i][xi];
    prefix = (prefix << kBlockBits) | xi;
  }
  return out;
}

OreRight OreCipher::encrypt_right(std::uint64_t plaintext) const {
  return encrypt_right(plaintext, SecureRng::bytes(16));
}

OreRight OreCipher::encrypt_right(std::uint64_t plaintext, BytesView nonce) const {
  require(nonce.size() == 16, "OreCipher::encrypt_right: nonce must be 16 bytes");
  const std::size_t nblocks = num_blocks();
  OreRight out;
  out.nonce.assign(nonce.begin(), nonce.end());
  out.tables.resize(nblocks);
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < nblocks; ++i) {
    const unsigned shift = static_cast<unsigned>(bits_ - kBlockBits * (i + 1));
    const std::uint8_t yi = static_cast<std::uint8_t>((plaintext >> shift) & 0xf);
    for (std::uint8_t j = 0; j < kSlots; ++j) {
      std::uint8_t cmp;
      if (j < yi) cmp = static_cast<std::uint8_t>(OreResult::kLess);
      else if (j == yi) cmp = static_cast<std::uint8_t>(OreResult::kEqual);
      else cmp = static_cast<std::uint8_t>(OreResult::kGreater);
      const crypto::PrfKey::Tag tag = block_pad_tag(i, prefix, j);
      out.tables[i][slot_perm_[i][j]] = static_cast<std::uint8_t>(
          (cmp + trit_pad(BytesView(tag).first(kPadKeySize), out.nonce)) % 3);
    }
    prefix = (prefix << kBlockBits) | yi;
  }
  return out;
}

OreResult OreCipher::compare(const OreLeft& left, const OreRight& right) {
  require(left.blocks.size() == right.tables.size(), "OreCipher::compare: size mismatch");
  for (std::size_t i = 0; i < left.blocks.size(); ++i) {
    const std::uint8_t padded = right.tables[i][left.blocks[i].slot];
    const std::uint8_t pad = trit_pad(left.blocks[i].pad_key, right.nonce);
    const auto v = static_cast<OreResult>((padded + 3 - pad) % 3);
    // The first non-equal block decides; beyond it the prefixes diverge and
    // the remaining trits are pseudorandom noise by construction.
    if (v != OreResult::kEqual) return v;
  }
  return OreResult::kEqual;
}

}  // namespace datablinder::ppe
