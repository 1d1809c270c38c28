// Durable, crash-consistent snapshot storage with generations and retention.
//
// Write path (per snapshot): serialize -> write to `<final>.tmp` -> fflush + fsync ->
// close -> rename(tmp, final) -> fsync(directory). A crash at any byte leaves either the
// previous generation intact (tmp never renamed) or the new generation fully written —
// never a half-visible file under the final name. Readers additionally verify the
// codec's SHA-256 frame, so even a torn rename on a non-atomic filesystem degrades to
// "rejected, fall back one generation" rather than resuming from garbage.
//
// Load path: scan `<role>.g<generation>.snap` files newest-first, return the first one
// that verifies. Corrupt generations are counted (`persist.snapshot.rejected`), skipped
// (`persist.snapshot.fallbacks`), and never trusted.
//
// One StateStore (one directory) is shared by every role of a job; roles write disjoint
// file names, and a mutex serializes directory-level operations so concurrent role
// threads cannot interleave scan-prune-rename sequences.
#ifndef DETA_PERSIST_STATE_STORE_H_
#define DETA_PERSIST_STATE_STORE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "persist/codec.h"

namespace deta::persist {

// Atomic durable file write: tmp + fsync + rename + directory fsync, used by the
// StateStore. False on any I/O failure (the tmp file is cleaned up best-effort).
bool AtomicWriteFile(const std::string& path, const Bytes& blob);

// Reads a whole file; nullopt when it cannot be opened.
std::optional<Bytes> ReadFile(const std::string& path);

struct StateStoreOptions {
  std::string dir;
  // Verified generations retained per role; older ones are pruned after each write.
  // Minimum 1 (the write being made).
  int keep = 3;
};

class StateStore {
 public:
  explicit StateStore(StateStoreOptions options);

  const std::string& dir() const { return options_.dir; }

  // Persists |snapshot| as the next generation for its role (assigns
  // snapshot.generation), prunes generations beyond options.keep, and returns false on
  // I/O failure. The snapshot on disk is durable (fsynced) when this returns true.
  bool Write(Snapshot& snapshot);

  // Latest verifiable snapshot for |role|; corrupt newer generations are skipped with
  // telemetry. nullopt when no generation verifies.
  std::optional<Snapshot> Load(const std::string& role) const;

  // Latest verifiable snapshot for |role| whose round is <= |max_round| — the
  // consistent-cut load used when every role must resume at the same round.
  std::optional<Snapshot> LoadAt(const std::string& role, int max_round) const;

  // Sorted ascending generation numbers currently on disk for |role| (including
  // corrupt files: a generation exists once its file name does).
  std::vector<uint64_t> Generations(const std::string& role) const;

  // File path for one generation (for tests that corrupt snapshots deliberately).
  std::string PathFor(const std::string& role, uint64_t generation) const;

 private:
  std::optional<Snapshot> LoadLocked(const std::string& role, int max_round) const
      DETA_REQUIRES(mutex_);
  std::vector<uint64_t> GenerationsLocked(const std::string& role) const
      DETA_REQUIRES(mutex_);
  void PruneLocked(const std::string& role) DETA_REQUIRES(mutex_);

  StateStoreOptions options_;
  // Serializes directory-level scan/prune/rename sequences; the guarded state is the
  // directory itself, so no data member carries a DETA_GUARDED_BY.
  mutable Mutex mutex_;
};

}  // namespace deta::persist

#endif  // DETA_PERSIST_STATE_STORE_H_
