// Microbenchmarks for the crypto substrate (google-benchmark): the primitives behind
// attestation (SHA-256/ECDSA), secure channels (the ChaCha20 core at the CPU's width,
// Poly1305 and the RFC 8439 ChaCha20-Poly1305 AEAD), shuffling (keyed permutation
// derivation on the SecureRng stream), and Paillier fusion (batches on the Montgomery
// kernel at the CPU's width). Both widths are in the benchmark context
// (deta_chacha_lanes, deta_montgomery_lanes); rows over the keystream or a Paillier
// batch compare only at one.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "common/parallel.h"
#include "core/model_mapper.h"
#include "core/shuffler.h"
#include "crypto/aead.h"
#include "crypto/ecdsa.h"
#include "crypto/paillier.h"
#include "crypto/poly1305.h"
#include "crypto/sha256.h"
#include "fl/paillier_fusion.h"

namespace {

using namespace deta;
using namespace deta::crypto;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_ChaCha20(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  auto key = rng.NextArray<kChaChaKeySize>();
  auto nonce = rng.NextArray<kChaChaNonceSize>();
  Bytes data(static_cast<size_t>(state.range(0)), 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChaCha20Xor(key, nonce, 0, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(4096)->Arg(1 << 20);

void BM_Poly1305(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  auto key = rng.NextArray<kPoly1305KeySize>();
  Bytes data(static_cast<size_t>(state.range(0)), 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Poly1305Mac(key, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Poly1305)->Arg(1 << 18);

void BM_AeadSealOpen(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  Aead aead(StringToBytes("key"));
  Bytes data(static_cast<size_t>(state.range(0)), 0x55);
  Bytes ad = StringToBytes("chan");
  for (auto _ : state) {
    Bytes frame = aead.Seal(data, ad, rng);
    benchmark::DoNotOptimize(aead.Open(frame, ad));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AeadSealOpen)->Arg(4096)->Arg(1 << 18);

void BM_EcKeygen(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateEcKey(rng));
  }
}
BENCHMARK(BM_EcKeygen);

void BM_EcdsaSign(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  EcKeyPair key = GenerateEcKey(rng);
  Bytes message = StringToBytes("challenge nonce");
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdsaSign(key.private_key, message));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  EcKeyPair key = GenerateEcKey(rng);
  Bytes message = StringToBytes("challenge nonce");
  EcdsaSignature sig = EcdsaSign(key.private_key, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdsaVerify(key.public_key, message, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcdhAgree(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  EcKeyPair a = GenerateEcKey(rng);
  EcKeyPair b = GenerateEcKey(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdhSharedSecret(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_EcdhAgree);

void BM_PaillierEncrypt(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, static_cast<size_t>(state.range(0)));
  BigUint m(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pub.Encrypt(m, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(256)->Arg(512);

// The same ciphertext by CRT on the private key (what a party runs): two
// exponentiations mod p^2 and q^2, joined by Garner, against one mod n^2 above.
void BM_PaillierEncryptCrt(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, static_cast<size_t>(state.range(0)));
  BigUint m(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.priv.Encrypt(m, rng));
  }
}
BENCHMARK(BM_PaillierEncryptCrt)->Arg(256)->Arg(512);

void BM_PaillierAddCiphertexts(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  BigUint c1 = key.pub.Encrypt(BigUint(1), rng);
  BigUint c2 = key.pub.Encrypt(BigUint(2), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pub.AddCiphertexts(c1, c2));
  }
}
BENCHMARK(BM_PaillierAddCiphertexts);

// --- Hot-path building blocks (rows tracked by the perf-trajectory gate; see
// BENCH_crypto.json and scripts/bench_snapshot.py) ---

// Returns an odd modulus with exactly |bits| bits. RandomBits sets the msb, so the +1
// on an even draw cannot carry past the top bit (the all-ones value is already odd).
BigUint OddModulus(SecureRng& rng, size_t bits) {
  BigUint m = BigUint::RandomBits(rng, bits);
  return m.IsOdd() ? m : m.Add(BigUint(1));
}

// One REDC-backed modular multiply (two ToMont, one MulMont, one FromMont) against the
// generic divide-based BigUint::MulMod at Paillier n^2 operand sizes.
void BM_MontgomeryMul(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  BigUint m = OddModulus(rng, static_cast<size_t>(state.range(0)));
  MontgomeryContext ctx(m);
  BigUint a = BigUint::RandomBelow(rng, m);
  BigUint b = BigUint::RandomBelow(rng, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.MulMod(a, b));
  }
}
BENCHMARK(BM_MontgomeryMul)->Arg(512)->Arg(1024);

void BM_BigUintMulMod(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  BigUint m = OddModulus(rng, static_cast<size_t>(state.range(0)));
  BigUint a = BigUint::RandomBelow(rng, m);
  BigUint b = BigUint::RandomBelow(rng, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::MulMod(a, b, m));
  }
}
BENCHMARK(BM_BigUintMulMod)->Arg(512)->Arg(1024);

// Fixed-window Montgomery exponentiation, the one PowMod path.
void BM_PowModFixedWindow(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  size_t bits = static_cast<size_t>(state.range(0));
  BigUint m = OddModulus(rng, bits);
  BigUint base = BigUint::RandomBelow(rng, m);
  BigUint exp = BigUint::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::PowMod(base, exp, m));
  }
}
BENCHMARK(BM_PowModFixedWindow)->Arg(512)->Arg(1024);

// Binary GCD at the shape of Paillier encryption's gcd(r, n) = 1 check: a random r below
// an odd |bits|-bit modulus.
void BM_BigUintGcd(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  BigUint n = OddModulus(rng, static_cast<size_t>(state.range(0)));
  BigUint r = BigUint::RandomBelow(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::Gcd(r, n));
  }
}
BENCHMARK(BM_BigUintGcd)->Arg(256)->Arg(1024);

// Decryption, by CRT over p² and q²: the library's only decrypt path.
void BM_PaillierDecryptCrt(benchmark::State& state) {
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  BigUint c = key.pub.Encrypt(BigUint(42), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.priv.Decrypt(c));
  }
}
BENCHMARK(BM_PaillierDecryptCrt);

// Packed hot path at several pack widths: narrower lanes pack more values per
// ciphertext, dividing the per-coordinate exponentiation cost (items/s is the
// comparable column across widths). Both rows run a party's path, the private key's
// CRT batches that DetaParty::RunRound runs: 256 values make 19, 43 and 86 ciphertexts,
// so the Montgomery kernel's lanes take full and short steps. Both rows run on one
// thread: they have no threads column, so bench_snapshot.py keeps them whatever the
// core count, and the baseline must not read a parallel wall time on a many-core runner.
void BM_PaillierPackedEncrypt(benchmark::State& state) {
  int lane_bits = static_cast<int>(state.range(0));
  parallel::ScopedThreads threads(1);
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  PaillierPacker packer(key.pub, /*max_addends=*/8, lane_bits);
  std::vector<int64_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i % 200) - 100;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaillierEncryptPacked(key.priv, packer, values, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_PaillierPackedEncrypt)->ArgName("lane_bits")->Arg(16)->Arg(32)->Arg(56);

void BM_PaillierPackedDecryptSum(benchmark::State& state) {
  int lane_bits = static_cast<int>(state.range(0));
  parallel::ScopedThreads threads(1);
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  PaillierPacker packer(key.pub, /*max_addends=*/8, lane_bits);
  std::vector<int64_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i % 200) - 100;
  }
  std::vector<BigUint> cs = PaillierEncryptPacked(key.pub, packer, values, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PaillierDecryptPackedSum(key.priv, packer, cs, values.size(), /*num_addends=*/1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_PaillierPackedDecryptSum)->ArgName("lane_bits")->Arg(16)->Arg(32)->Arg(56);

// A party's fragment encryption: lane-packed, by CRT under the private key, through the
// deterministic parallel layer and the batch exponentiation kernel. The threads column
// shows the fan-out; ciphertexts are identical for any thread count (per-element rng
// forked from sequentially pre-drawn seeds).
void BM_PaillierVectorEncrypt(benchmark::State& state) {
  int64_t n = state.range(0);
  parallel::ScopedThreads threads(static_cast<int>(state.range(1)));
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  fl::PaillierVectorCodec codec(key.pub, /*max_parties=*/8);
  std::vector<float> values(static_cast<size_t>(n));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i % 97) * 0.25f - 12.0f;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encrypt(values, key.priv, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PaillierVectorEncrypt)
    ->ArgNames({"coords", "threads"})
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4});

void BM_PaillierVectorAccumulate(benchmark::State& state) {
  int64_t n = state.range(0);
  parallel::ScopedThreads threads(static_cast<int>(state.range(1)));
  SecureRng rng(StringToBytes("bench"));
  PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  fl::PaillierVectorCodec codec(key.pub, /*max_parties=*/8);
  std::vector<float> values(static_cast<size_t>(n), 1.5f);
  auto acc = codec.Encrypt(values, key.priv, rng);
  auto other = codec.Encrypt(values, key.priv, rng);
  for (auto _ : state) {
    codec.AccumulateInPlace(acc, other);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PaillierVectorAccumulate)
    ->ArgNames({"coords", "threads"})
    ->Args({16384, 1})
    ->Args({16384, 2})
    ->Args({16384, 4});

void BM_PermutationDerivation(benchmark::State& state) {
  core::Shuffler shuffler(core::GeneratePermutationKey(128, StringToBytes("e")));
  int64_t n = state.range(0);
  uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shuffler.PermutationFor(++round, 0, n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PermutationDerivation)->Arg(10000)->Arg(100000)->Arg(1000000);

// The model mapper's layout at bulk_update_tcp's 2,035,210 parameters over 3 aggregators:
// one Fisher-Yates over every coordinate plus the walk that fills the partitions.
void BM_MapperLayout(benchmark::State& state) {
  int64_t n = state.range(0);
  const Bytes seed = StringToBytes("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ModelMapper::Uniform(n, 3, seed));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_MapperLayout)->Arg(2035210);

}  // namespace

DETA_BENCH_MAIN();
