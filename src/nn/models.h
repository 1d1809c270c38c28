// Model zoo matching the paper's evaluation workloads (scaled for CPU; see DESIGN.md):
//   * LeNet (sigmoid activations) — the DLG/iDLG attack target (§6.2),
//   * ConvNet-8 — the 8-layer MNIST ConvNet (§7.1),
//   * ConvNet-23 — the 23-layer CIFAR-10 ConvNet (§7.2),
//   * MiniVGG — VGG-16 stand-in for RVL-CDIP transfer learning (§7.3),
//   * MiniResNet — ResNet-18 stand-in for the IG attack (§6.3),
//   * MLP — small fully-connected model for tests.
#ifndef DETA_NN_MODELS_H_
#define DETA_NN_MODELS_H_

#include <memory>

#include "nn/layers.h"

namespace deta::nn {

// A model is a Sequential plus its cached parameter handles.
class Model {
 public:
  explicit Model(std::unique_ptr<Sequential> net);

  Var Forward(const Var& x) { return net_->Forward(x); }
  std::vector<Var>& params() { return params_; }
  const std::vector<Var>& params() const { return params_; }
  int64_t NumParameters() const { return ParamCount(params_); }

  // Snapshot / restore the full parameter vector (FL model update view).
  std::vector<float> GetFlatParams() const { return FlattenParams(params_); }
  void SetFlatParams(const std::vector<float>& flat) { LoadParams(params_, flat); }

 private:
  std::unique_ptr<Sequential> net_;
  std::vector<Var> params_;
};

std::unique_ptr<Model> BuildMlp(int input_dim, const std::vector<int>& hidden, int classes,
                                Rng& rng);
// DLG's LeNet variant: sigmoid convnet (twice differentiable, as the attack requires).
std::unique_ptr<Model> BuildLeNet(int in_channels, int image_size, int classes, Rng& rng);
// 8-layer MNIST ConvNet (paper §7.1).
std::unique_ptr<Model> BuildConvNet8(int in_channels, int image_size, int classes, Rng& rng);
// 23-layer CIFAR-10 ConvNet (paper §7.2).
std::unique_ptr<Model> BuildConvNet23(int in_channels, int image_size, int classes, Rng& rng);
// VGG-style document classifier (paper §7.3 stand-in for VGG-16 on RVL-CDIP).
std::unique_ptr<Model> BuildMiniVgg(int in_channels, int image_size, int classes, Rng& rng);
// Residual network (paper §6.3 stand-in for ResNet-18 on ImageNet).
std::unique_ptr<Model> BuildMiniResNet(int in_channels, int image_size, int classes, Rng& rng);

// --- training helpers ---

// One-hot encodes labels into [batch, classes].
Tensor OneHot(const std::vector<int>& labels, int classes);

// Computes mean cross-entropy loss and parameter gradients for one batch.
struct LossAndGrads {
  float loss = 0.0f;
  std::vector<Tensor> grads;
};
LossAndGrads ComputeLossAndGrads(Model& model, const Tensor& inputs, const Tensor& one_hot);

// Fraction of argmax(logits) == labels.
double Accuracy(Model& model, const Tensor& inputs, const std::vector<int>& labels,
                int batch_size = 64);
// Mean cross-entropy over a dataset.
double MeanLoss(Model& model, const Tensor& inputs, const std::vector<int>& labels,
                int classes, int batch_size = 64);

// MeanLoss and Accuracy, bit for bit, from one forward pass per batch.
struct Evaluation {
  double loss = 0.0;
  double accuracy = 0.0;
};
Evaluation Evaluate(Model& model, const Tensor& inputs, const std::vector<int>& labels,
                    int classes, int batch_size = 64);

}  // namespace deta::nn

#endif  // DETA_NN_MODELS_H_
