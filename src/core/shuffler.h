// Parameter-level data shuffling (paper §4.2): parties permute the parameters inside each
// partitioned update before upload. The permutation is seeded by the combination of a
// permutation key (from a trusted key-broker, shared only among parties) and a dynamic
// per-round training identifier, so it changes every round yet is identical across
// parties. Aggregation commutes with the permutation; data-reconstruction attacks do not.
//
// Recovering the original order without the key costs O(2^|key| * T) — the keyspace
// exhaustion the paper analyzes — because the permutation is derived from the key via a
// PRF (ChaCha20-based), not from the shuffled values themselves.
#ifndef DETA_CORE_SHUFFLER_H_
#define DETA_CORE_SHUFFLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/chacha20.h"
#include "fl/update.h"

namespace deta::core {

// The one seeded Fisher-Yates behind both the model mapper's layout and the per-round
// shuffle: iota, then for i = n..2 swap(t[i-1], t[rng.NextBelow(i)]), the draws taken in
// batches with their swap targets prefetched. Step i fixes position i - 1, so a draw
// stopped at |stop| (<= n) takes only the steps i > max(stop, 1): positions [stop, n)
// hold what the full draw puts there, [0, stop) the rest of the entries in an order the
// full draw would go on to change, and the stream ends where those steps end. The mapper
// stops at its first slice; the shuffle's tables are full draws. Requires n < 2^32.
std::vector<uint32_t> SeededPermutation(crypto::SecureRng& rng, size_t n, size_t stop = 0);

// A permutation table that wipes itself when destroyed or overwritten: a round's table
// undoes that round's shuffle, so it must not linger in freed heap pages.
class PermutationTable {
 public:
  PermutationTable() = default;
  explicit PermutationTable(std::vector<uint32_t> table) : table_(std::move(table)) {}
  PermutationTable(PermutationTable&& other) noexcept = default;
  PermutationTable& operator=(PermutationTable&& other) noexcept;
  ~PermutationTable() { Wipe(); }

  std::span<const uint32_t> view() const { return table_; }

 private:
  void Wipe();

  std::vector<uint32_t> table_;
};

// The gather and scatter behind every Trans stage, over caller buffers: GatherInto
// writes out[i] = in[map[i]] for every i of |out|, ScatterInto out[map[i]] = in[i] for
// every i of |in| (|map| one-to-one). The writes are disjoint, so chunks run in parallel
// and the bits do not depend on the split. The shuffle's maps are its tables, the
// partition's the mapper's index slices.
void GatherInto(std::span<const float> in, std::span<const uint32_t> map,
                std::span<float> out);
void ScatterInto(const fl::FloatSpan& in, std::span<const uint32_t> map,
                 std::span<float> out);

// out[i] = fragment[table[i]]: applies a shuffle table.
std::vector<float> GatherBy(const std::vector<float>& fragment,
                            std::span<const uint32_t> table);
// out[table[i]] = fragment[i]: undoes GatherBy with the same table.
std::vector<float> ScatterBy(const std::vector<float>& fragment,
                             std::span<const uint32_t> table);

class Shuffler {
 public:
  // |permutation_key| of any length; its size is the paper's key-size security knob
  // (the ablation bench shortens it through GeneratePermutationKey's |bits|).
  explicit Shuffler(Bytes permutation_key);

  // The permutation for (round, partition) as an index map: out[i] = in[perm[i]].
  // Counted under core.transform.permutations.
  std::vector<uint32_t> PermutationFor(uint64_t round_id, int partition, int64_t size) const;

  // Applies / inverts the round's permutation on one fragment, deriving its table.
  std::vector<float> Shuffle(const std::vector<float>& fragment, uint64_t round_id,
                             int partition) const;
  std::vector<float> Unshuffle(const std::vector<float>& fragment, uint64_t round_id,
                               int partition) const;

 private:
  // Undoing the shuffle costs O(2^|key|) without it.
  Secret<Bytes> key_;
};

// Generates a fresh permutation key of |bits| (trusted key-broker role).
Bytes GeneratePermutationKey(size_t bits, const Bytes& entropy);

}  // namespace deta::core

#endif  // DETA_CORE_SHUFFLER_H_
