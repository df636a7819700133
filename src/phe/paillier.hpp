// Paillier partially homomorphic cryptosystem (Paillier, EUROCRYPT'99).
//
// Additively homomorphic: Enc(a) * Enc(b) = Enc(a + b). DataBlinder uses it
// for the cloud-side SUM and AVERAGE aggregate tactics exactly as the
// paper's prototype used Javallier. We use the standard g = n + 1 variant:
//   Enc(m; r) = (1 + m*n) * r^n  mod n^2
//   Dec(c)    = L(c^lambda mod n^2) * lambda^{-1}  mod n,  L(x) = (x-1)/n
//
// Signed values are supported via symmetric half-range encoding: plaintexts
// in (n/2, n) decode as negative.
//
// Fast paths (all optional — the schoolbook paths remain and are pinned
// against them by the differential suite):
//  * `init_fast_paths()` caches Montgomery contexts for n and n^2 so every
//    encryption/homomorphic op amortizes the per-modulus precomputation;
//  * keygen retains p and q, enabling CRT decryption (exponentiate mod p^2
//    and q^2 separately — ~4x less work than one exponentiation mod n^2);
//  * a randomizer pool precomputes the r^n blinding factors off the hot
//    path, reducing a hot encryption to two modular multiplications.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "common/worker_pool.hpp"

namespace datablinder::phe {

using bigint::BigInt;
using bigint::Montgomery;

class PaillierRandomizerPool;

struct PaillierPublicKey {
  BigInt n;         // modulus p*q
  BigInt n_squared; // cached n^2

  // Derived accelerators (never serialized; rebuilt via init_fast_paths).
  std::shared_ptr<const Montgomery> mont_n;
  std::shared_ptr<const Montgomery> mont_n2;
  std::shared_ptr<PaillierRandomizerPool> pool;

  /// Builds the cached Montgomery contexts (and, when `pool_low_water` > 0,
  /// a randomizer pool that keeps at least that many precomputed r^n
  /// factors ready, refilled by a background worker off the hot path).
  /// Idempotent; call after constructing/deserializing a key.
  void init_fast_paths(std::size_t pool_low_water = 0);

  /// Encrypts a signed integer (half-range encoding).
  BigInt encrypt(const BigInt& m) const;
  BigInt encrypt_i64(std::int64_t m) const;

  /// Homomorphic addition of two ciphertexts.
  BigInt add(const BigInt& c1, const BigInt& c2) const;

  /// Homomorphic addition of a plaintext constant.
  BigInt add_plain(const BigInt& c, const BigInt& m) const;

  /// Homomorphic multiplication by a plaintext scalar.
  BigInt mul_plain(const BigInt& c, const BigInt& k) const;

  /// Re-randomizes a ciphertext (fresh r^n factor) without changing the
  /// plaintext; used to unlink ciphertexts across protocol steps.
  BigInt rerandomize(const BigInt& c) const;

  /// Encryption of zero — identity element for `add`.
  BigInt encrypt_zero() const;

  /// Keys are equal when their moduli are (derived caches don't count).
  bool operator==(const PaillierPublicKey& o) const { return n == o.n; }

 private:
  /// r^n mod n^2 for fresh r — from the pool when one is attached.
  BigInt blinding_factor() const;
};

struct PaillierPrivateKey {
  BigInt lambda;  // lcm(p-1, q-1)
  BigInt mu;      // lambda^{-1} mod n
  BigInt p;       // prime factors — empty on legacy keys (disables CRT)
  BigInt q;
  PaillierPublicKey pub;

  /// Precomputes the CRT residue system (p^2/q^2 contexts, the L-inverse
  /// constants h_p/h_q, and q^{-1} mod p). No-op unless p and q are set.
  /// Idempotent; decrypt falls back to the lambda/mu path when absent.
  void init_fast_paths();

  /// Decrypts to a signed integer (half-range decoding). Uses CRT when
  /// init_fast_paths() ran with p/q available.
  BigInt decrypt(const BigInt& c) const;
  std::int64_t decrypt_i64(const BigInt& c) const;

  /// Reference decryption via the full lambda/mu exponentiation mod n^2 —
  /// the differential baseline for the CRT path.
  BigInt decrypt_generic(const BigInt& c) const;

 private:
  BigInt decode_signed(BigInt m) const;

  // CRT precomputation (empty when unavailable).
  std::shared_ptr<const Montgomery> mont_p2_;
  std::shared_ptr<const Montgomery> mont_q2_;
  BigInt p_minus_1_, q_minus_1_;
  BigInt hp_, hq_;     // L_p(g^{p-1} mod p^2)^{-1} mod p, resp. for q
  BigInt q_inv_p_;     // q^{-1} mod p
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// Precomputed pool of r^n mod n^2 blinding factors. `take()` pops in O(1);
/// when the pool drains below its low-water mark a refill task on a
/// one-thread WorkerPool tops it up to the high-water mark, so steady-state
/// encryption never runs the r^n exponentiation inline. Thread-safe. Randomness is
/// SecureRng (via BigInt::random_below) — pool entries are key material.
class PaillierRandomizerPool {
 public:
  PaillierRandomizerPool(BigInt n, std::shared_ptr<const Montgomery> mont_n2,
                         std::size_t low_water);
  ~PaillierRandomizerPool();

  PaillierRandomizerPool(const PaillierRandomizerPool&) = delete;
  PaillierRandomizerPool& operator=(const PaillierRandomizerPool&) = delete;

  /// Pops a precomputed factor, or computes one inline on a dry pool.
  BigInt take();

  /// Synchronously fills the pool up to `count` entries (setup-time call).
  void prefill(std::size_t count);

  std::size_t size() const;
  std::uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }

 private:
  BigInt compute_one() const;
  void refill_worker(std::size_t target);

  const BigInt n_;
  const std::shared_ptr<const Montgomery> mont_n2_;
  const std::size_t low_water_;
  const std::size_t high_water_;

  mutable std::mutex mutex_;
  std::deque<BigInt> pool_;
  bool refilling_ = false;
  bool shutdown_ = false;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  /// Declared last: its destructor joins the refill worker (which stops
  /// once it sees shutdown_) before any other member is destroyed.
  WorkerPool refill_pool_{1};
};

/// Generates a key pair with an n of roughly `modulus_bits` bits, fast
/// paths initialized (Montgomery contexts + CRT; no pool by default).
/// Real deployments use >= 2048; tests and benches may use smaller moduli —
/// the homomorphic structure (what the evaluation measures) is identical.
PaillierKeyPair paillier_generate(std::size_t modulus_bits);

}  // namespace datablinder::phe
