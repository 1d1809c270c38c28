// Model checkpointing, now a thin wrapper over the durable snapshot codec
// (src/persist/codec.h): a checkpoint is a persist::Snapshot with role
// "model-checkpoint" carrying the flat parameter vector, optionally the optimizer's
// momentum buffers, and an architecture digest (a hash of the per-parameter shapes) so
// restoring into a mismatched model is a *typed* error, not a silent count check.
#ifndef DETA_NN_CHECKPOINT_H_
#define DETA_NN_CHECKPOINT_H_

#include <string>

#include "common/bytes.h"
#include "nn/models.h"
#include "nn/optimizer.h"

namespace deta::nn {

// SHA-256 over the model's per-parameter shapes (rank + dims, in parameter order).
// Two models agree iff their parameter tensors are layout-compatible.
Bytes ArchitectureDigest(const Model& model);

// How a checkpoint restore ended.
enum class CheckpointStatus {
  kOk = 0,
  kIoError,                // file missing/unreadable/unwritable
  kCorrupt,                // digest mismatch, truncation, or malformed framing
  kArchitectureMismatch,   // valid checkpoint for a different model architecture
};

const char* CheckpointStatusName(CheckpointStatus status);

// Writes |model|'s parameters, its architecture digest and, when |sgd| is non-null, its
// momentum buffers, so training resumes with identical optimizer dynamics. The file is
// a persist snapshot (integrity-protected by the codec's SHA-256 frame) written by
// atomic write-rename; returns false on I/O failure.
bool SaveCheckpointWithOptimizer(const Model& model, const Sgd* sgd,
                                 const std::string& path);
// Restores parameters (and optimizer state into |sgd| when present in the file and
// |sgd| != nullptr). Returns kArchitectureMismatch when the checkpoint was written by
// a model whose parameter shapes differ from |model|'s.
CheckpointStatus LoadCheckpointInto(Model& model, Sgd* sgd, const std::string& path);

}  // namespace deta::nn

#endif  // DETA_NN_CHECKPOINT_H_
