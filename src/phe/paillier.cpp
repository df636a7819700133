#include "phe/paillier.hpp"

#include "bigint/prime.hpp"
#include "common/status.hpp"

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

PaillierRandomizerPool::PaillierRandomizerPool(BigInt n,
                                               std::shared_ptr<const Montgomery> mont_n2,
                                               std::size_t low_water)
    : n_(std::move(n)),
      mont_n2_(std::move(mont_n2)),
      low_water_(low_water),
      high_water_(low_water * 2) {
  require(mont_n2_ != nullptr, "PaillierRandomizerPool: null n^2 context");
  require(low_water > 0, "PaillierRandomizerPool: low_water must be > 0");
}

PaillierRandomizerPool::~PaillierRandomizerPool() {
  std::lock_guard<std::mutex> lk(mutex_);
  shutdown_ = true;
}

BigInt PaillierRandomizerPool::compute_one() const {
  return sample_unit(n_).pow_mod(n_, *mont_n2_);
}

BigInt PaillierRandomizerPool::take() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!pool_.empty()) {
      BigInt out = std::move(pool_.front());
      pool_.pop_front();
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (pool_.size() < low_water_ && !refilling_ && !shutdown_) {
        refilling_ = true;
        refill_pool_.submit([this] { refill_worker(high_water_); });
      }
      return out;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return compute_one();
}

void PaillierRandomizerPool::prefill(std::size_t count) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (pool_.size() >= count || shutdown_) return;
    }
    BigInt fresh = compute_one();
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
    BigInt fresh = compute_one();  // the exponentiation runs unlocked
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

void PaillierPublicKey::init_fast_paths(std::size_t pool_low_water) {
  require(n.is_odd(), "Paillier: modulus must be odd");
  if (!mont_n) mont_n = std::make_shared<const Montgomery>(n);
  if (n_squared.is_zero()) n_squared = n * n;
  if (!mont_n2) mont_n2 = std::make_shared<const Montgomery>(n_squared);
  if (pool_low_water > 0 && !pool) {
    pool = std::make_shared<PaillierRandomizerPool>(n, mont_n2, pool_low_water);
    pool->prefill(pool_low_water);
  }
}

BigInt PaillierPublicKey::blinding_factor() const {
  if (pool) return pool->take();
  const BigInt r = sample_unit(n);
  return mont_n2 ? r.pow_mod(n, *mont_n2) : r.pow_mod(n, n_squared);
}

BigInt PaillierPublicKey::encrypt(const BigInt& m) const {
  // Half-range encoding for signed plaintexts.
  const BigInt encoded = m.mod(n);
  // (1 + m*n) mod n^2 avoids a full pow_mod for the g^m term (g = n+1).
  const BigInt gm = (BigInt(1) + encoded * n).mod(n_squared);
  const BigInt rn = blinding_factor();
  return mont_n2 ? gm.mul_mod(rn, *mont_n2) : gm.mul_mod(rn, n_squared);
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

void PaillierPrivateKey::init_fast_paths() {
  if (p.is_zero() || q.is_zero() || mont_p2_) return;
  const BigInt p2 = p * p;
  const BigInt q2 = q * q;
  mont_p2_ = std::make_shared<const Montgomery>(p2);
  mont_q2_ = std::make_shared<const Montgomery>(q2);
  p_minus_1_ = p - BigInt(1);
  q_minus_1_ = q - BigInt(1);
  // h_p = L_p(g^{p-1} mod p^2)^{-1} mod p with g = n+1 (and symmetrically
  // for q): the constant folded out of every CRT branch.
  const BigInt g = pub.n + BigInt(1);
  const BigInt gp = g.pow_mod(p_minus_1_, *mont_p2_);
  hp_ = ((gp - BigInt(1)) / p).inv_mod(p);
  const BigInt gq = g.pow_mod(q_minus_1_, *mont_q2_);
  hq_ = ((gq - BigInt(1)) / q).inv_mod(q);
  q_inv_p_ = q.inv_mod(p);
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
  if (!mont_p2_) return decrypt_generic(c);
  require(!c.is_zero() && c < pub.n_squared, "Paillier: ciphertext out of range");
  // CRT: recover m mod p and m mod q with half-size exponentiations, then
  // recombine. Each branch is ~8x cheaper than the lambda path (half the
  // exponent bits, quarter-size modulus multiplies).
  const BigInt xp = c.pow_mod(p_minus_1_, *mont_p2_);
  const BigInt mp = ((xp - BigInt(1)) / p).mul_mod(hp_, p);
  const BigInt xq = c.pow_mod(q_minus_1_, *mont_q2_);
  const BigInt mq = ((xq - BigInt(1)) / q).mul_mod(hq_, q);
  const BigInt u = (mp - mq).mul_mod(q_inv_p_, p);
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
  kp.pub.init_fast_paths();
  kp.priv.lambda = BigInt::lcm(p - BigInt(1), q - BigInt(1));
  kp.priv.mu = kp.priv.lambda.inv_mod(kp.pub.n);
  kp.priv.p = p;
  kp.priv.q = q;
  kp.priv.pub = kp.pub;
  kp.priv.init_fast_paths();
  return kp;
}

}  // namespace datablinder::phe
