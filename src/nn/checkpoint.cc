#include "nn/checkpoint.h"

#include <optional>
#include <vector>

#include "common/logging.h"
#include "crypto/sha256.h"
#include "persist/codec.h"
#include "persist/state_store.h"

namespace deta::nn {

namespace {

constexpr char kCheckpointRole[] = "model-checkpoint";
constexpr char kParamsSection[] = "params";
constexpr char kArchSection[] = "arch";
constexpr char kOptimizerSection[] = "optimizer";

Bytes ReadWholeFile(const std::string& path) {
  std::optional<Bytes> blob = persist::ReadFile(path);
  return blob.has_value() ? std::move(*blob) : Bytes{};
}

}  // namespace

Bytes ArchitectureDigest(const Model& model) {
  Bytes description;
  for (const Var& p : model.params()) {
    const Tensor::Shape& shape = p.shape();
    AppendU32(description, static_cast<uint32_t>(shape.size()));
    for (int dim : shape) {
      AppendU32(description, static_cast<uint32_t>(dim));
    }
  }
  return crypto::Sha256Digest(description);
}

const char* CheckpointStatusName(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::kOk:
      return "ok";
    case CheckpointStatus::kIoError:
      return "io_error";
    case CheckpointStatus::kCorrupt:
      return "corrupt";
    case CheckpointStatus::kArchitectureMismatch:
      return "architecture_mismatch";
  }
  return "unknown";
}

bool SaveCheckpointWithOptimizer(const Model& model, const Sgd* sgd,
                                 const std::string& path) {
  persist::Snapshot snapshot;
  snapshot.role = kCheckpointRole;
  snapshot.AddFloats(persist::SectionType::kModelParams, kParamsSection,
                     model.GetFlatParams());
  snapshot.Add(persist::SectionType::kRaw, kArchSection, ArchitectureDigest(model));
  if (sgd != nullptr) {
    snapshot.Add(persist::SectionType::kOptimizerState, kOptimizerSection,
                 sgd->SerializeState());
  }
  return persist::AtomicWriteFile(path, persist::SerializeSnapshot(snapshot));
}

CheckpointStatus LoadCheckpointInto(Model& model, Sgd* sgd, const std::string& path) {
  Bytes blob = ReadWholeFile(path);
  if (blob.empty()) {
    return CheckpointStatus::kIoError;
  }
  std::optional<persist::Snapshot> snapshot = persist::ParseSnapshot(blob);
  if (!snapshot.has_value() || snapshot->role != kCheckpointRole) {
    LOG_WARNING << "checkpoint rejected (corrupted or not a model checkpoint)";
    return CheckpointStatus::kCorrupt;
  }
  const persist::Section* arch = snapshot->Find(kArchSection);
  if (arch != nullptr && arch->data != ArchitectureDigest(model)) {
    LOG_WARNING << "checkpoint architecture digest does not match model";
    return CheckpointStatus::kArchitectureMismatch;
  }
  std::optional<std::vector<float>> params = snapshot->FindFloats(kParamsSection);
  if (!params.has_value()) {
    return CheckpointStatus::kCorrupt;
  }
  // A snapshot without the architecture section (never written by this file) still gets
  // the count check.
  if (static_cast<int64_t>(params->size()) != model.NumParameters()) {
    LOG_WARNING << "checkpoint parameter count " << params->size()
                << " does not match model (" << model.NumParameters() << ")";
    return CheckpointStatus::kArchitectureMismatch;
  }
  if (sgd != nullptr) {
    const persist::Section* opt = snapshot->Find(kOptimizerSection);
    if (opt != nullptr && !sgd->RestoreState(opt->data)) {
      LOG_WARNING << "checkpoint optimizer state rejected";
      return CheckpointStatus::kCorrupt;
    }
  }
  model.SetFlatParams(*params);
  return CheckpointStatus::kOk;
}

}  // namespace deta::nn
