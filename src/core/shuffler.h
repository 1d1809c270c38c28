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
#include <vector>

#include "common/bytes.h"
#include "common/secret.h"

namespace deta::core {

class Shuffler {
 public:
  // |permutation_key| of any length; the paper's key-size security knob. |key_bits| in
  // [8, 8*key.size()] optionally truncates the effective key for the ablation bench.
  explicit Shuffler(Bytes permutation_key);

  // The permutation for (round, partition) as an index map: out[i] = in[perm[i]].
  std::vector<int64_t> PermutationFor(uint64_t round_id, int partition, int64_t size) const;

  // Applies / inverts the round's permutation on one fragment.
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
