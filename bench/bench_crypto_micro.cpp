// Microbenchmarks of every cryptographic primitive and per-tactic protocol
// step (the "performance metrics" axis of the tactic abstraction model,
// Fig. 1). google-benchmark binary.
#include <benchmark/benchmark.h>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/montgomery_kernels.hpp"
#include "common/rng.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/siv.hpp"
#include "phe/paillier.hpp"
#include "ppe/det.hpp"
#include "ppe/ope.hpp"
#include "ppe/ore.hpp"
#include "sse/iex2lev.hpp"
#include "sse/mitra.hpp"
#include "sse/sophos.hpp"

namespace {

using namespace datablinder;
using bigint::BigInt;

void BM_Sha256(benchmark::State& state) {
  const Bytes data = DetRng(1).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 1);
  const Bytes data = DetRng(2).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256::mac(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(1024);

void BM_PrfKeyHoisted(benchmark::State& state) {
  // Same MAC through a PrfKey: the key schedule and ipad/opad compressions
  // are paid once at construction instead of per call.
  const crypto::PrfKey key(Bytes(32, 1));
  const Bytes data = DetRng(2).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.prf(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrfKeyHoisted)->Arg(32)->Arg(1024);

void BM_AesGcmSeal(benchmark::State& state) {
  const crypto::AesGcm gcm(Bytes(32, 1));
  const Bytes nonce(12, 2);
  const Bytes data = DetRng(3).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AesGcmOpen(benchmark::State& state) {
  // 256 B is about one encoded document: the gateway's per-result open.
  const crypto::AesGcm gcm(Bytes(32, 1));
  const Bytes nonce(12, 2);
  const Bytes sealed =
      gcm.seal(nonce, DetRng(4).bytes(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open(nonce, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(256)->Arg(1024);

void BM_AesSivSeal(benchmark::State& state) {
  const crypto::AesSiv siv(Bytes(32, 5));
  const Bytes data = DetRng(5).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(siv.seal(data));
  }
}
BENCHMARK(BM_AesSivSeal)->Arg(16)->Arg(256);

void BM_DetEncrypt(benchmark::State& state) {
  const ppe::DetCipher det(Bytes(32, 6), "bench.field");
  const Bytes value = to_bytes("final");
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.encrypt(value));
  }
}
BENCHMARK(BM_DetEncrypt);

void BM_OpeEncrypt(benchmark::State& state) {
  const ppe::OpeCipher ope(Bytes(32, 7), "bench.field");
  std::uint64_t x = 1359966610;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ope.encrypt(x++));
  }
}
BENCHMARK(BM_OpeEncrypt);

void BM_OreEncryptRight(benchmark::State& state) {
  const ppe::OreCipher ore(Bytes(32, 8), "bench.field", 64);
  std::uint64_t x = 1359966610;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ore.encrypt_right(x++));
  }
}
BENCHMARK(BM_OreEncryptRight);

void BM_OreEncryptLeft(benchmark::State& state) {
  const ppe::OreCipher ore(Bytes(32, 8), "bench.field", 64);
  std::uint64_t x = 1359966610;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ore.encrypt_left(x++));
  }
}
BENCHMARK(BM_OreEncryptLeft);

void BM_OreCompare(benchmark::State& state) {
  const ppe::OreCipher ore(Bytes(32, 8), "bench.field", 64);
  const auto left = ore.encrypt_left(1000);
  const auto right = ore.encrypt_right(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppe::OreCipher::compare(left, right));
  }
}
BENCHMARK(BM_OreCompare);

void BM_MitraUpdate(benchmark::State& state) {
  sse::MitraClient client(Bytes(32, 9));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.update(sse::UpdateOp::kAdd, "kw", "doc" + std::to_string(i++)));
  }
}
BENCHMARK(BM_MitraUpdate);

void BM_MitraSearchTokens(benchmark::State& state) {
  sse::MitraClient client(Bytes(32, 10));
  for (int i = 0; i < state.range(0); ++i) {
    client.update(sse::UpdateOp::kAdd, "kw", "doc" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.search_token("kw"));
  }
}
BENCHMARK(BM_MitraSearchTokens)->Arg(10)->Arg(100)->Arg(1000);

void BM_SophosUpdate(benchmark::State& state) {
  // One RSA private op per update (by CRT) — the scheme's known update cost.
  sse::SophosClient client(Bytes(32, 11), 768);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.update("kw", "doc" + std::to_string(i++)));
  }
}
BENCHMARK(BM_SophosUpdate)->Unit(benchmark::kMicrosecond);

void BM_SophosServerSearch(benchmark::State& state) {
  sse::SophosClient client(Bytes(32, 12), 768);
  sse::SophosServer server(client.public_params());
  for (int i = 0; i < state.range(0); ++i) {
    server.apply_update(client.update("kw", "doc" + std::to_string(i)));
  }
  const auto token = *client.search_token("kw");
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.search(token));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SophosServerSearch)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_Iex2LevUpdate(benchmark::State& state) {
  sse::Iex2LevClient client(Bytes(32, 13));
  const std::vector<std::string> keywords = {"status:final", "code:glucose",
                                             "value:63"};
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.update(sse::UpdateOp::kAdd, keywords, "doc" + std::to_string(i++)));
  }
}
BENCHMARK(BM_Iex2LevUpdate);

void BM_PaillierKeygen(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phe::paillier_generate(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_PaillierKeygen)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  const phe::PaillierKeyPair kp =
      phe::paillier_generate(static_cast<std::size_t>(state.range(0)));
  std::int64_t v = 630;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.encrypt_i64(v++));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_PaillierEncryptCrt(benchmark::State& state) {
  // The key holder's path: h_s^alpha by two fixed-base table walks, mod p^2
  // and mod q^2, recombined and multiplied by 1 + m*n.
  const phe::PaillierKeyPair kp =
      phe::paillier_generate(static_cast<std::size_t>(state.range(0)));
  std::int64_t v = 630;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.encrypt_i64(v++));
  }
}
BENCHMARK(BM_PaillierEncryptCrt)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierEncryptPooled(benchmark::State& state) {
  // A pool hit: pop a precomputed factor and multiply it by 1 + m*n. The
  // pool's source hands out one precomputed factor, so the refill never
  // lags the loop and (almost) every take hits; a deployment's pool draws
  // each factor fresh, at BM_PaillierEncryptCrt's cost.
  phe::PaillierKeyPair kp =
      phe::paillier_generate(static_cast<std::size_t>(state.range(0)));
  const BigInt factor = kp.priv.encrypt_i64(0);  // an n-th residue
  kp.priv.pub.pool = std::make_shared<phe::PaillierRandomizerPool>(
      [factor] { return factor; }, /*low_water=*/64);
  kp.priv.pub.pool->prefill(64);
  std::int64_t v = 630;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.encrypt_i64(v++));
  }
  state.counters["pool_hits"] = static_cast<double>(kp.priv.pub.pool->hits());
  state.counters["pool_misses"] = static_cast<double>(kp.priv.pub.pool->misses());
}
BENCHMARK(BM_PaillierEncryptPooled)
    ->Arg(256)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierAdd(benchmark::State& state) {
  const phe::PaillierKeyPair kp = phe::paillier_generate(512);
  const BigInt c1 = kp.pub.encrypt_i64(100);
  const BigInt c2 = kp.pub.encrypt_i64(200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.add(c1, c2));
  }
}
BENCHMARK(BM_PaillierAdd);

void BM_PaillierDecrypt(benchmark::State& state) {
  // CRT path (keygen retains p/q and initializes the residue system).
  const phe::PaillierKeyPair kp =
      phe::paillier_generate(static_cast<std::size_t>(state.range(0)));
  const BigInt c = kp.pub.encrypt_i64(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.decrypt_i64(c));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(256)->Arg(512)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_PaillierDecryptGeneric(benchmark::State& state) {
  // Reference lambda/mu exponentiation mod n^2 — the pre-CRT cost.
  const phe::PaillierKeyPair kp =
      phe::paillier_generate(static_cast<std::size_t>(state.range(0)));
  const BigInt c = kp.pub.encrypt_i64(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.decrypt_generic(c));
  }
}
BENCHMARK(BM_PaillierDecryptGeneric)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_BigIntModExp(benchmark::State& state) {
  // Auto-dispatch entry point (odd modulus -> transient Montgomery context).
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = BigInt::random_bits(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = BigInt::random_below(m);
  const BigInt exp = BigInt::random_bits(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.pow_mod(exp, m));
  }
}
BENCHMARK(BM_BigIntModExp)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_BigIntModExpGeneric(benchmark::State& state) {
  // Reference square-and-multiply over Knuth-D division (the before-series).
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = BigInt::random_bits(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = BigInt::random_below(m);
  const BigInt exp = BigInt::random_bits(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.pow_mod_generic(exp, m));
  }
}
BENCHMARK(BM_BigIntModExpGeneric)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_BigIntModExpMontgomery(benchmark::State& state) {
  // Caller-held context: what Paillier/Sophos pay per operation
  // once the per-modulus precomputation is amortized away.
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = BigInt::random_bits(bits);
  if (m.is_even()) m += BigInt(1);
  const bigint::Montgomery ctx(m);
  const BigInt base = BigInt::random_below(m);
  const BigInt exp = BigInt::random_bits(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.pow_mod(exp, ctx));
  }
}
BENCHMARK(BM_BigIntModExpMontgomery)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_FixedBasePow(benchmark::State& state) {
  // One of the two table walks a Paillier key of state.range(0) bits runs
  // per encryption: a modulus of that width (p^2) and an exponent of half
  // of it (alpha), each window's entry gathered by a masked scan.
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = BigInt::random_bits(bits);
  if (m.is_even()) m += BigInt(1);
  const bigint::Montgomery ctx(m);
  const bigint::FixedBasePow fixed(ctx, BigInt::random_below(m), bits / 2);
  const BigInt alpha = BigInt::random_below(BigInt(1) << (bits / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixed.pow(alpha));
  }
}
BENCHMARK(BM_FixedBasePow)->Arg(512)->Arg(2048)->Unit(benchmark::kMicrosecond);

/// One Montgomery multiply through `kernels` at state.range(0) limbs,
/// chained so each call's output is the next call's input.
void run_montgomery_mul(benchmark::State& state, const bigint::MontKernels& kernels) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  BigInt m = BigInt::random_bits(64 * n);
  if (m.is_even()) m += BigInt(1);
  auto limbs = [n](const BigInt& v) {
    const Bytes be = v.to_bytes(8 * n);
    std::vector<std::uint64_t> out(n, 0);
    for (std::size_t i = 0; i < 8 * n; ++i) {
      out[i / 8] |= std::uint64_t{be[8 * n - 1 - i]} << (8 * (i % 8));
    }
    return out;
  };
  const std::vector<std::uint64_t> mod = limbs(m);
  std::uint64_t m0inv = 1;  // -m^-1 mod 2^64 by Hensel lifting
  for (int i = 0; i < 6; ++i) m0inv *= 2 - mod[0] * m0inv;
  m0inv = ~m0inv + 1;
  std::vector<std::uint64_t> acc = limbs(BigInt::random_below(m));
  const std::vector<std::uint64_t> b = limbs(BigInt::random_below(m));
  for (auto _ : state) {
    kernels.mul(acc.data(), acc.data(), b.data(), mod.data(), m0inv, n);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
}

void BM_MontgomeryMul(benchmark::State& state) {
  // The active kernel (BMI2 + ADX when CPUID reports them); the label
  // names it, so a CI check can tell whether there was one to compare.
  run_montgomery_mul(state, bigint::active_mont_kernels());
  state.SetLabel(bigint::hardware_mont_kernels() != nullptr ? "bmi2+adx" : "portable");
}
BENCHMARK(BM_MontgomeryMul)->Arg(8)->Arg(16)->Arg(32);

void BM_MontgomeryMulPortable(benchmark::State& state) {
  // The reference CIOS kernel.
  run_montgomery_mul(state, bigint::portable_mont_kernels());
}
BENCHMARK(BM_MontgomeryMulPortable)->Arg(8)->Arg(16)->Arg(32);

void run_sha256_compress(benchmark::State& state, const crypto::Sha256Kernels& kernels) {
  // Raw compression of `blocks` 64-byte blocks per call, no padding or
  // digest encoding: the kernel's own throughput.
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const Bytes data = DetRng(12).bytes(64 * blocks);
  std::uint32_t st[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (auto _ : state) {
    kernels.compress(st, data.data(), blocks);
    benchmark::DoNotOptimize(st);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 64);
}

void BM_Sha256Compress(benchmark::State& state) {
  // The SHA-NI kernel when CPUID reports it, else the portable one; the
  // label names it, so a CI check can tell whether there was one to compare.
  const crypto::Sha256Kernels* hw = crypto::hardware_sha256_kernels();
  run_sha256_compress(state, hw != nullptr ? *hw : crypto::portable_sha256_kernels());
  state.SetLabel(hw != nullptr ? "sha-ni" : "portable");
}
BENCHMARK(BM_Sha256Compress)->Arg(1)->Arg(16);

void BM_Sha256CompressPortable(benchmark::State& state) {
  // The reference FIPS 180-4 round loop.
  run_sha256_compress(state, crypto::portable_sha256_kernels());
}
BENCHMARK(BM_Sha256CompressPortable)->Arg(1)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
