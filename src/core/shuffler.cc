#include "core/shuffler.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "crypto/hmac.h"
#include "crypto/secure_wipe.h"
#include "net/codec.h"

namespace deta::core {

std::vector<uint32_t> SeededPermutation(crypto::SecureRng& rng, size_t n, size_t stop) {
  DETA_CHECK_LT(n, size_t{1} << 32);
  DETA_CHECK_LE(stop, n);
  std::vector<uint32_t> table(n);
  std::iota(table.begin(), table.end(), 0u);
  // The draws do not depend on the table, so each batch of them is taken first and its
  // swap targets prefetched. The swaps then run in the one-at-a-time order, and a large
  // table's cache misses overlap instead of coming one after another.
  constexpr size_t kBatch = 32;
  uint32_t targets[kBatch];
  const size_t last = std::max<size_t>(stop, 1);  // step 2 fixes positions 1 and 0
  for (size_t i = n; i > last;) {
    const size_t batch = std::min(kBatch, i - last);
    for (size_t k = 0; k < batch; ++k) {
      targets[k] = static_cast<uint32_t>(rng.NextBelow(i - k));
      __builtin_prefetch(&table[targets[k]], 1);
    }
    for (size_t k = 0; k < batch; ++k) {
      std::swap(table[i - 1 - k], table[targets[k]]);
    }
    i -= batch;
  }
  crypto::SecureWipe(targets, sizeof(targets));
  return table;
}

PermutationTable& PermutationTable::operator=(PermutationTable&& other) noexcept {
  if (this != &other) {
    Wipe();
    table_ = std::move(other.table_);
  }
  return *this;
}

void PermutationTable::Wipe() {
  crypto::SecureWipe(table_.data(), table_.size() * sizeof(uint32_t));
}

namespace {

// Elements per chunk: the pool's grain for a memory-bound pass.
constexpr int64_t kGatherGrain = 1 << 15;

}  // namespace

void GatherInto(std::span<const float> in, std::span<const uint32_t> map,
                std::span<float> out) {
  DETA_CHECK_EQ(map.size(), out.size());
  parallel::ParallelFor(0, static_cast<int64_t>(out.size()), kGatherGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            const size_t k = static_cast<size_t>(i);
                            out[k] = in[map[k]];
                          }
                        });
}

void ScatterInto(const fl::FloatSpan& in, std::span<const uint32_t> map,
                 std::span<float> out) {
  DETA_CHECK_EQ(map.size(), in.size());
  parallel::ParallelFor(0, static_cast<int64_t>(in.size()), kGatherGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            const size_t k = static_cast<size_t>(i);
                            out[map[k]] = in[k];
                          }
                        });
}

std::vector<float> GatherBy(const std::vector<float>& fragment,
                            std::span<const uint32_t> table) {
  DETA_CHECK_EQ(fragment.size(), table.size());
  std::vector<float> out(fragment.size());
  GatherInto(fragment, table, out);
  return out;
}

std::vector<float> ScatterBy(const std::vector<float>& fragment,
                             std::span<const uint32_t> table) {
  DETA_CHECK_EQ(fragment.size(), table.size());
  std::vector<float> out(fragment.size());
  ScatterInto(fragment, table, out);
  return out;
}

Shuffler::Shuffler(Bytes permutation_key) : key_(std::move(permutation_key)) {
  DETA_CHECK_MSG(!key_.ExposeForCrypto().empty(), "empty permutation key");
}

std::vector<uint32_t> Shuffler::PermutationFor(uint64_t round_id, int partition,
                                               int64_t size) const {
  DETA_CHECK_GE(size, 0);
  // PRF(key, round || partition) seeds the Fisher-Yates. Every party derives the
  // identical permutation; nothing about it is inferable without the key.
  net::Writer w;
  w.WriteU64(round_id);
  w.WriteU32(static_cast<uint32_t>(partition));
  crypto::SecureRng rng(crypto::HmacSha256(key_.ExposeForCrypto(), w.Take()));
  DETA_COUNTER("core.transform.permutations").Increment();
  return SeededPermutation(rng, static_cast<size_t>(size));
}

std::vector<float> Shuffler::Shuffle(const std::vector<float>& fragment, uint64_t round_id,
                                     int partition) const {
  PermutationTable table(
      PermutationFor(round_id, partition, static_cast<int64_t>(fragment.size())));
  return GatherBy(fragment, table.view());
}

std::vector<float> Shuffler::Unshuffle(const std::vector<float>& fragment, uint64_t round_id,
                                       int partition) const {
  PermutationTable table(
      PermutationFor(round_id, partition, static_cast<int64_t>(fragment.size())));
  return ScatterBy(fragment, table.view());
}

Bytes GeneratePermutationKey(size_t bits, const Bytes& entropy) {
  DETA_CHECK_GE(bits, 8u);
  crypto::SecureRng rng(entropy);
  return rng.NextBytes((bits + 7) / 8);
}

}  // namespace deta::core
