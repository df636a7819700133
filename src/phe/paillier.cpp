#include "phe/paillier.hpp"

#include <optional>

#include "bigint/prime.hpp"
#include "common/status.hpp"
#include "crypto/gcm.hpp"

namespace datablinder::phe {

namespace {
/// Samples r in [1, n) with gcd(r, n) = 1.
BigInt sample_unit(const BigInt& n) {
  for (;;) {
    BigInt r = BigInt::random_below(n);
    if (!r.is_zero() && BigInt::gcd(r, n) == BigInt(1)) return r;
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Randomizer pool
// ---------------------------------------------------------------------------

PaillierRandomizerPool::PaillierRandomizerPool(std::function<BigInt()> fresh,
                                               std::size_t low_water)
    : fresh_(std::move(fresh)), low_water_(low_water), high_water_(low_water * 2) {
  require(fresh_ != nullptr, "PaillierRandomizerPool: null factor source");
  require(low_water > 0, "PaillierRandomizerPool: low_water must be > 0");
}

PaillierRandomizerPool::~PaillierRandomizerPool() {
  std::lock_guard<std::mutex> lk(mutex_);
  shutdown_ = true;
}

BigInt PaillierRandomizerPool::take(bool* hit) {
  if (hit != nullptr) *hit = false;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!pool_.empty()) {
      BigInt out = std::move(pool_.front());
      pool_.pop_front();
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (hit != nullptr) *hit = true;
      if (pool_.size() < low_water_ && !refilling_ && !shutdown_) {
        refilling_ = true;
        refill_pool_.submit([this] { refill_worker(high_water_); });
      }
      return out;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return fresh_();
}

void PaillierRandomizerPool::prefill(std::size_t count) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (pool_.size() >= count || shutdown_) return;
    }
    BigInt fresh = fresh_();
    std::lock_guard<std::mutex> lk(mutex_);
    pool_.push_back(std::move(fresh));
  }
}

std::size_t PaillierRandomizerPool::size() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return pool_.size();
}

void PaillierRandomizerPool::refill_worker(std::size_t target) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (shutdown_ || pool_.size() >= target) {
        refilling_ = false;
        return;
      }
    }
    BigInt fresh = fresh_();  // the exponentiation runs unlocked
    std::lock_guard<std::mutex> lk(mutex_);
    pool_.push_back(std::move(fresh));
    if (shutdown_ || pool_.size() >= target) {
      refilling_ = false;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Public key
// ---------------------------------------------------------------------------

void PaillierPublicKey::init_fast_paths() {
  require(n.is_odd(), "Paillier: modulus must be odd");
  if (!mont_n) mont_n = std::make_shared<const Montgomery>(n);
  if (n_squared.is_zero()) n_squared = n * n;
  if (!mont_n2) mont_n2 = std::make_shared<const Montgomery>(n_squared);
}

BigInt PaillierPublicKey::blind(const BigInt& r) const {
  return mont_n2 ? r.pow_mod(n, *mont_n2) : r.pow_mod(n, n_squared);
}

BigInt PaillierPublicKey::fresh_factor() const { return blind(sample_unit(n)); }

BigInt PaillierPublicKey::blinding_factor() const {
  return pool ? pool->take() : fresh_factor();
}

BigInt PaillierPublicKey::with_factor(const BigInt& m, const BigInt& rn) const {
  // Half-range encoding for signed plaintexts.
  const BigInt encoded = m.mod(n);
  // (1 + m*n) mod n^2 avoids a full pow_mod for the g^m term (g = n+1).
  const BigInt gm = (BigInt(1) + encoded * n).mod(n_squared);
  return mont_n2 ? gm.mul_mod(rn, *mont_n2) : gm.mul_mod(rn, n_squared);
}

BigInt PaillierPublicKey::encrypt(const BigInt& m) const {
  return with_factor(m, blinding_factor());
}

BigInt PaillierPublicKey::encrypt_i64(std::int64_t m) const { return encrypt(BigInt(m)); }

BigInt PaillierPublicKey::add(const BigInt& c1, const BigInt& c2) const {
  return mont_n2 ? c1.mul_mod(c2, *mont_n2) : c1.mul_mod(c2, n_squared);
}

BigInt PaillierPublicKey::add_plain(const BigInt& c, const BigInt& m) const {
  const BigInt gm = (BigInt(1) + m.mod(n) * n).mod(n_squared);
  return mont_n2 ? c.mul_mod(gm, *mont_n2) : c.mul_mod(gm, n_squared);
}

BigInt PaillierPublicKey::mul_plain(const BigInt& c, const BigInt& k) const {
  return mont_n2 ? c.pow_mod(k.mod(n), *mont_n2) : c.pow_mod(k.mod(n), n_squared);
}

BigInt PaillierPublicKey::rerandomize(const BigInt& c) const {
  const BigInt rn = blinding_factor();
  return mont_n2 ? c.mul_mod(rn, *mont_n2) : c.mul_mod(rn, n_squared);
}

BigInt PaillierPublicKey::encrypt_zero() const { return encrypt(BigInt(0)); }

// ---------------------------------------------------------------------------
// Private key
// ---------------------------------------------------------------------------

/// The key holder's residue system mod p^2 and q^2, for decryption and for
/// the blinding factor of every encryption.
struct PaillierPrivateKey::Crt {
  Crt(const BigInt& modulus, const BigInt& p_in, const BigInt& q_in)
      : Crt(modulus, p_in, q_in, djn_base(modulus)) {}

  /// h = -x^2 mod n for a fresh unit x (Damgard, Jurik & Nielsen): h^n
  /// generates a subgroup of the n-th residues mod n^2 in which a short
  /// exponent is assumed to look like a uniform one.
  static BigInt djn_base(const BigInt& n) {
    const BigInt x = sample_unit(n);
    return n - x.mul_mod(x, n);
  }

  /// h_s^alpha = (h^alpha)^n mod n^2 for a fresh alpha of ceil(bits(n) / 2)
  /// bits: one fixed-base walk mod p^2 and one mod q^2, recombined mod
  /// n^2 = p^2 q^2 (Garner).
  BigInt fresh_factor() const {
    const BigInt alpha = BigInt::random_below(BigInt(1) << hs_p.exp_bits());
    const BigInt a = hs_p.pow(alpha);
    const BigInt b = hs_q.pow(alpha);
    return b + (a - b).mul_mod(q2_inv_p2, mont_p2) * q2;
  }

  BigInt n, p, q, q2;
  Montgomery mont_p2, mont_q2;
  BigInt p_minus_1, q_minus_1;
  BigInt hp, hq;     // L_p(g^{p-1} mod p^2)^{-1} mod p, resp. for q
  BigInt q_inv_p;    // q^{-1} mod p
  BigInt q2_inv_p2;  // (q^2)^{-1} mod p^2
  // h_s = h^n mod p^2 and mod q^2, with tables for exponents of
  // ceil(bits(n) / 2) bits.
  bigint::FixedBasePow hs_p, hs_q;

 private:
  Crt(const BigInt& modulus, const BigInt& p_in, const BigInt& q_in, const BigInt& h)
      : n(modulus), p(p_in), q(q_in), q2(q * q), mont_p2(p * p), mont_q2(q2),
        p_minus_1(p - BigInt(1)), q_minus_1(q - BigInt(1)),
        hs_p(mont_p2, h.pow_mod(n, mont_p2), (n.bit_length() + 1) / 2),
        hs_q(mont_q2, h.pow_mod(n, mont_q2), (n.bit_length() + 1) / 2) {
    // h_p = L_p(g^{p-1} mod p^2)^{-1} mod p with g = n+1 (and symmetrically
    // for q): the constant folded out of every CRT decryption branch.
    const BigInt g = n + BigInt(1);
    hp = ((g.pow_mod(p_minus_1, mont_p2) - BigInt(1)) / p).inv_mod(p);
    hq = ((g.pow_mod(q_minus_1, mont_q2) - BigInt(1)) / q).inv_mod(q);
    q_inv_p = q.inv_mod(p);
    q2_inv_p2 = q2.inv_mod(mont_p2.modulus());
  }
};

void PaillierPrivateKey::init_fast_paths(std::size_t pool_low_water) {
  pub.init_fast_paths();
  if (!crt_ && !p.is_zero() && !q.is_zero()) {
    crt_ = std::make_shared<const Crt>(pub.n, p, q);
  }
  if (pool_low_water > 0 && !pub.pool) {
    // One blinding routine on the key holder: a miss and a refill both run
    // the fixed-base walks; only a key without p and q pays a full-width r^n.
    std::function<BigInt()> fresh;
    if (crt_) {
      fresh = [crt = crt_] { return crt->fresh_factor(); };
    } else {
      fresh = [key = pub] { return key.fresh_factor(); };  // key.pool is null
    }
    pub.pool = std::make_shared<PaillierRandomizerPool>(std::move(fresh), pool_low_water);
    pub.pool->prefill(pool_low_water);
  }
}

BigInt PaillierPrivateKey::encrypt(const BigInt& m, bool* pooled) const {
  if (pooled != nullptr) *pooled = false;
  if (pub.pool) return pub.with_factor(m, pub.pool->take(pooled));
  return crt_ ? pub.with_factor(m, crt_->fresh_factor()) : pub.encrypt(m);
}

BigInt PaillierPrivateKey::encrypt_i64(std::int64_t m, bool* pooled) const {
  return encrypt(BigInt(m), pooled);
}

BigInt PaillierPrivateKey::decode_signed(BigInt m) const {
  // Symmetric half-range decode: the top half of [0, n) is negative.
  if (m > (pub.n >> 1)) m -= pub.n;
  return m;
}

BigInt PaillierPrivateKey::decrypt_generic(const BigInt& c) const {
  require(!c.is_zero() && c < pub.n_squared, "Paillier: ciphertext out of range");
  const BigInt x = pub.mont_n2 ? c.pow_mod(lambda, *pub.mont_n2)
                               : c.pow_mod(lambda, pub.n_squared);
  const BigInt l = (x - BigInt(1)) / pub.n;
  return decode_signed(l.mul_mod(mu, pub.n));
}

BigInt PaillierPrivateKey::decrypt(const BigInt& c) const {
  if (!crt_) return decrypt_generic(c);
  require(!c.is_zero() && c < pub.n_squared, "Paillier: ciphertext out of range");
  // CRT: recover m mod p and m mod q with half-size exponentiations, then
  // recombine. Each branch is ~8x cheaper than the lambda path (half the
  // exponent bits, quarter-size modulus multiplies).
  const Crt& k = *crt_;
  const BigInt xp = c.pow_mod(k.p_minus_1, k.mont_p2);
  const BigInt mp = ((xp - BigInt(1)) / p).mul_mod(k.hp, p);
  const BigInt xq = c.pow_mod(k.q_minus_1, k.mont_q2);
  const BigInt mq = ((xq - BigInt(1)) / q).mul_mod(k.hq, q);
  const BigInt u = (mp - mq).mul_mod(k.q_inv_p, p);
  return decode_signed(mq + u * q);
}

std::int64_t PaillierPrivateKey::decrypt_i64(const BigInt& c) const {
  return decrypt(c).to_i64();
}

// ---------------------------------------------------------------------------
// Keygen
// ---------------------------------------------------------------------------

PaillierKeyPair paillier_generate(std::size_t modulus_bits) {
  require(modulus_bits >= 64, "paillier_generate: modulus too small");
  const auto [p, q] = bigint::generate_prime_pair(modulus_bits / 2);
  PaillierKeyPair kp;
  kp.pub.n = p * q;
  kp.pub.n_squared = kp.pub.n * kp.pub.n;
  kp.priv.lambda = BigInt::lcm(p - BigInt(1), q - BigInt(1));
  kp.priv.mu = kp.priv.lambda.inv_mod(kp.pub.n);
  kp.priv.p = p;
  kp.priv.q = q;
  kp.priv.pub = kp.pub;
  kp.priv.init_fast_paths();
  kp.pub = kp.priv.pub;
  return kp;
}

// ---------------------------------------------------------------------------
// Persisted key pairs
// ---------------------------------------------------------------------------

namespace {
// Legacy plaintext blobs start with the 4-byte length of n, whose top byte
// is 0, so they never read as a version.
constexpr std::uint8_t kSealedKeyV1 = 1;

PaillierKeyPair parse_keypair(BytesView blob) {
  std::size_t off = 0;
  auto take = [&]() {
    if (blob.size() - off < 4) throw_error(ErrorCode::kCryptoFailure, "Paillier: bad key blob");
    const std::size_t n = read_be32(blob.subspan(off));
    off += 4;
    if (blob.size() - off < n) throw_error(ErrorCode::kCryptoFailure, "Paillier: bad key blob");
    BigInt v = BigInt::from_bytes(blob.subspan(off, n));
    off += n;
    return v;
  };
  PaillierKeyPair kp;
  kp.pub.n = take();
  kp.pub.n_squared = kp.pub.n * kp.pub.n;
  kp.priv.lambda = take();
  kp.priv.mu = take();
  if (off < blob.size()) {
    kp.priv.p = take();
    kp.priv.q = take();
  }
  kp.priv.pub = kp.pub;
  return kp;
}
}  // namespace

Bytes seal_keypair(const PaillierKeyPair& kp, const SecretBytes& key, BytesView aad) {
  Bytes plain;
  for (const BigInt* v : {&kp.pub.n, &kp.priv.lambda, &kp.priv.mu, &kp.priv.p, &kp.priv.q}) {
    const Bytes b = v->to_bytes();
    append(plain, be32(static_cast<std::uint32_t>(b.size())));
    append(plain, b);
  }
  Bytes blob{kSealedKeyV1};
  append(blob, crypto::AesGcm(key).seal_random_nonce(plain, aad));
  secure_wipe(plain);
  return blob;
}

PaillierKeyPair open_keypair(BytesView blob, const SecretBytes& key, BytesView aad,
                             bool* legacy) {
  *legacy = blob.empty() || blob[0] != kSealedKeyV1;
  if (*legacy) return parse_keypair(blob);
  std::optional<Bytes> plain = crypto::AesGcm(key).open_with_nonce(blob.subspan(1), aad);
  if (!plain) throw_error(ErrorCode::kCryptoFailure, "Paillier: key blob failed authentication");
  PaillierKeyPair kp = parse_keypair(*plain);
  secure_wipe(*plain);
  return kp;
}

}  // namespace datablinder::phe
