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
//  * keygen retains p and q, so the key holder works by CRT. Decryption
//    exponentiates mod p^2 and q^2 separately (~4x less work than one
//    exponentiation mod n^2). Encryption is the Damgard-Jurik-Nielsen
//    variant (IJIS 2010): each loaded key draws h = -x^2 mod n once and
//    fixes h_s = h^n mod n^2, and an encryption is (1 + m*n) * h_s^alpha
//    for a fresh alpha of ceil(bits(n) / 2) bits, i.e. Enc(m; r = h^alpha).
//    h_s^alpha is a fixed-base table walk mod p^2 and mod q^2
//    (bigint::FixedBasePow), recombined. Beyond DCR this assumes that a
//    short exponent on the fixed base looks like a uniform one;
//  * a randomizer pool, attached by the key holder, precomputes the
//    blinding factors off the hot path with that same fixed-base routine,
//    reducing a hot encryption to two modular multiplications.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "common/secret.hpp"
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
  /// Precomputed blinding factors; attached by the key holder
  /// (PaillierPrivateKey::init_fast_paths), drawn by every encrypt.
  std::shared_ptr<PaillierRandomizerPool> pool;

  /// Builds the cached Montgomery contexts. Idempotent; call after
  /// constructing/deserializing a key.
  void init_fast_paths();

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
  friend struct PaillierPrivateKey;

  /// r^n mod n^2 for fresh r — from the pool when one is attached.
  BigInt blinding_factor() const;
  /// r^n mod n^2 for a fresh unit r, always computed here (full width).
  BigInt fresh_factor() const;
  /// r^n mod n^2, full width.
  BigInt blind(const BigInt& r) const;
  /// (1 + m*n) * rn mod n^2: the ciphertext of m under blinding factor rn.
  BigInt with_factor(const BigInt& m, const BigInt& rn) const;
};

struct PaillierPrivateKey {
  BigInt lambda;  // lcm(p-1, q-1)
  BigInt mu;      // lambda^{-1} mod n
  BigInt p;       // prime factors — empty on legacy keys (disables CRT)
  BigInt q;
  PaillierPublicKey pub;

  /// Builds pub's contexts and, when p and q are set, the CRT residue
  /// system: p^2/q^2 contexts, the L-inverse constants h_p/h_q, q^{-1} mod
  /// p, (q^2)^{-1} mod p^2, and this key's own h_s with its fixed-base
  /// tables mod p^2 and q^2 (drawn from SecureRng, never persisted). When
  /// `pool_low_water` > 0 it also attaches to `pub` a randomizer pool that
  /// keeps at least that many blinding factors ready, computed by this
  /// key's blinding routine (fixed-base when available) on a background
  /// worker. Idempotent; without p and q, encryption and decryption fall
  /// back to the public and lambda/mu paths.
  void init_fast_paths(std::size_t pool_low_water = 0);

  /// True when init_fast_paths built the CRT residue system.
  bool has_crt() const noexcept { return crt_ != nullptr; }

  /// Encrypts like pub.encrypt, drawing from pub.pool when attached and
  /// otherwise computing h_s^alpha by the fixed-base walks (the public
  /// path's r^n without p and q). The ciphertext is an encryption under
  /// the same n, decrypted by either path. When `pooled` is given, it
  /// reports whether the factor came from the pool — per call, so
  /// concurrent encryptions count correctly.
  BigInt encrypt(const BigInt& m, bool* pooled = nullptr) const;
  BigInt encrypt_i64(std::int64_t m, bool* pooled = nullptr) const;

  /// Decrypts to a signed integer (half-range decoding). Uses CRT when
  /// init_fast_paths() ran with p/q available.
  BigInt decrypt(const BigInt& c) const;
  std::int64_t decrypt_i64(const BigInt& c) const;

  /// Reference decryption via the full lambda/mu exponentiation mod n^2 —
  /// the differential baseline for the CRT path.
  BigInt decrypt_generic(const BigInt& c) const;

 private:
  struct Crt;

  BigInt decode_signed(BigInt m) const;

  /// CRT precomputation (null when unavailable). Immutable and shared, so
  /// key copies and the randomizer pool's refill worker use one instance.
  std::shared_ptr<const Crt> crt_;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// Precomputed pool of blinding factors (n-th residues mod n^2). `take()`
/// pops in O(1); when the pool drains below its low-water mark a refill
/// task on a one-thread WorkerPool tops it up to the high-water mark, so
/// steady-state encryption never computes its blinding factor inline.
/// Thread-safe. Entries come from `fresh`, which must be thread-safe and
/// draw its randomness from SecureRng — pool entries are key material.
class PaillierRandomizerPool {
 public:
  PaillierRandomizerPool(std::function<BigInt()> fresh, std::size_t low_water);
  ~PaillierRandomizerPool();

  PaillierRandomizerPool(const PaillierRandomizerPool&) = delete;
  PaillierRandomizerPool& operator=(const PaillierRandomizerPool&) = delete;

  /// Pops a precomputed factor, or computes one inline on a dry pool;
  /// `hit` (when given) reports which.
  BigInt take(bool* hit = nullptr);

  /// Synchronously fills the pool up to `count` entries (setup-time call).
  void prefill(std::size_t count);

  std::size_t size() const;
  std::uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }

 private:
  void refill_worker(std::size_t target);

  const std::function<BigInt()> fresh_;
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

/// The persisted form of a key pair: a version byte, then n, lambda, mu, p
/// and q (each length-prefixed) sealed with AES-GCM under `key`, with `aad`
/// bound (a random nonce leads the ciphertext).
Bytes seal_keypair(const PaillierKeyPair& kp, const SecretBytes& key, BytesView aad);

/// Opens a seal_keypair blob. A legacy plaintext blob (n, lambda, mu and,
/// since CRT decryption, p and q) loads too, and sets `*legacy`; without p
/// and q the key stays on the lambda/mu path. Throws Error(kCryptoFailure)
/// when the blob fails authentication or is malformed. Fast paths are not
/// initialized.
PaillierKeyPair open_keypair(BytesView blob, const SecretBytes& key, BytesView aad,
                             bool* legacy);

}  // namespace datablinder::phe
