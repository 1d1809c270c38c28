#include "nn/models.h"

#include <algorithm>

#include "common/check.h"

namespace deta::nn {

namespace ag = autograd;

Model::Model(std::unique_ptr<Sequential> net) : net_(std::move(net)) {
  params_ = net_->Params();
}

std::unique_ptr<Model> BuildMlp(int input_dim, const std::vector<int>& hidden, int classes,
                                Rng& rng) {
  auto net = std::make_unique<Sequential>();
  // Accept both [batch, features] rows and [batch, C, H, W] images.
  net->Emplace<FlattenLayer>();
  int in = input_dim;
  for (int h : hidden) {
    net->Emplace<Linear>(in, h, rng);
    net->Emplace<ReluLayer>();
    in = h;
  }
  net->Emplace<Linear>(in, classes, rng);
  return std::make_unique<Model>(std::move(net));
}

std::unique_ptr<Model> BuildLeNet(int in_channels, int image_size, int classes, Rng& rng) {
  // The DLG paper's LeNet variant: stride-2 sigmoid convolutions, no pooling. All
  // components are smooth, so the attack's second-order optimization is well defined.
  auto net = std::make_unique<Sequential>();
  net->Emplace<Conv2d>(in_channels, 12, 5, 2, 2, rng);
  net->Emplace<SigmoidLayer>();
  net->Emplace<Conv2d>(12, 12, 5, 2, 2, rng);
  net->Emplace<SigmoidLayer>();
  net->Emplace<Conv2d>(12, 12, 5, 1, 2, rng);
  net->Emplace<SigmoidLayer>();
  net->Emplace<FlattenLayer>();
  int spatial = image_size / 4;  // two stride-2 convs
  net->Emplace<Linear>(12 * spatial * spatial, classes, rng);
  return std::make_unique<Model>(std::move(net));
}

std::unique_ptr<Model> BuildConvNet8(int in_channels, int image_size, int classes, Rng& rng) {
  // 8 layers: conv-relu-pool-conv-relu-pool-fc-fc (paper §7.1's "ConvNet with eight
  // layers" on MNIST).
  auto net = std::make_unique<Sequential>();
  net->Emplace<Conv2d>(in_channels, 16, 3, 1, 1, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<MaxPool2dLayer>(2, 2);
  net->Emplace<Conv2d>(16, 32, 3, 1, 1, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<MaxPool2dLayer>(2, 2);
  net->Emplace<FlattenLayer>();
  int spatial = image_size / 4;
  net->Emplace<Linear>(32 * spatial * spatial, 128, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<Linear>(128, classes, rng);
  return std::make_unique<Model>(std::move(net));
}

std::unique_ptr<Model> BuildConvNet23(int in_channels, int image_size, int classes,
                                      Rng& rng) {
  // VGG-style 23-layer stack (counting conv/act/pool/fc layers), the paper §7.2 CIFAR-10
  // model shape at reduced width.
  auto net = std::make_unique<Sequential>();
  auto block = [&](int in, int out) {
    net->Emplace<Conv2d>(in, out, 3, 1, 1, rng);
    net->Emplace<ReluLayer>();
    net->Emplace<Conv2d>(out, out, 3, 1, 1, rng);
    net->Emplace<ReluLayer>();
    net->Emplace<MaxPool2dLayer>(2, 2);
  };
  block(in_channels, 16);  // 5 layers
  block(16, 32);           // 10
  block(32, 64);           // 15
  net->Emplace<FlattenLayer>();  // 16
  int spatial = image_size / 8;
  net->Emplace<Linear>(64 * spatial * spatial, 256, rng);  // 17
  net->Emplace<ReluLayer>();                               // 18
  net->Emplace<Linear>(256, 128, rng);                     // 19
  net->Emplace<ReluLayer>();                               // 20
  net->Emplace<Linear>(128, classes, rng);                 // 21
  return std::make_unique<Model>(std::move(net));
}

std::unique_ptr<Model> BuildMiniVgg(int in_channels, int image_size, int classes, Rng& rng) {
  // VGG-16-shaped: conv blocks with doubling widths and three FC head layers (the part
  // the paper replaces for RVL-CDIP transfer learning).
  auto net = std::make_unique<Sequential>();
  auto block = [&](int in, int out) {
    net->Emplace<Conv2d>(in, out, 3, 1, 1, rng);
    net->Emplace<ReluLayer>();
    net->Emplace<MaxPool2dLayer>(2, 2);
  };
  block(in_channels, 16);
  block(16, 32);
  block(32, 64);
  block(64, 64);
  net->Emplace<FlattenLayer>();
  int spatial = image_size / 16;
  net->Emplace<Linear>(64 * spatial * spatial, 256, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<Linear>(256, 128, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<Linear>(128, classes, rng);
  return std::make_unique<Model>(std::move(net));
}

namespace {

// Sequential wrapper so ResidualBlock composes with Sequential ownership.
class ResidualWrapper : public Layer {
 public:
  ResidualWrapper(int channels, Rng& rng) : block_(channels, rng) {}
  Var Forward(const Var& x) override { return block_.Forward(x); }
  std::vector<Var> Params() override { return block_.Params(); }
  std::string Name() const override { return "residual"; }

 private:
  ResidualBlock block_;
};

}  // namespace

std::unique_ptr<Model> BuildMiniResNet(int in_channels, int image_size, int classes,
                                       Rng& rng) {
  auto net = std::make_unique<Sequential>();
  // ResNet-18 downsamples with stride-2 convolutions and ends in average pooling;
  // average pooling (not max) keeps the gradient-matching landscape piecewise-smooth,
  // matching the published IG attack's operating conditions.
  net->Emplace<Conv2d>(in_channels, 16, 3, 1, 1, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<ResidualWrapper>(16, rng);
  net->Emplace<AvgPool2dLayer>(2, 2);
  net->Emplace<Conv2d>(16, 32, 3, 1, 1, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<ResidualWrapper>(32, rng);
  net->Emplace<AvgPool2dLayer>(2, 2);
  net->Emplace<FlattenLayer>();
  int spatial = image_size / 4;
  net->Emplace<Linear>(32 * spatial * spatial, classes, rng);
  return std::make_unique<Model>(std::move(net));
}

Tensor OneHot(const std::vector<int>& labels, int classes) {
  Tensor out({static_cast<int>(labels.size()), classes});
  for (size_t i = 0; i < labels.size(); ++i) {
    DETA_CHECK_GE(labels[i], 0);
    DETA_CHECK_LT(labels[i], classes);
    out[static_cast<int64_t>(i) * classes + labels[i]] = 1.0f;
  }
  return out;
}

LossAndGrads ComputeLossAndGrads(Model& model, const Tensor& inputs, const Tensor& one_hot) {
  Var x(inputs);
  Var logits = model.Forward(x);
  Var loss = ag::SoftmaxCrossEntropy(logits, Var(one_hot));
  auto grad_vars = ag::Grad(loss, model.params());
  LossAndGrads result;
  result.loss = loss.value()[0];
  result.grads.reserve(grad_vars.size());
  for (const Var& g : grad_vars) {
    result.grads.push_back(g.value());
  }
  return result;
}

namespace {

// Copies rows [start, start+count) of a batch-major tensor.
Tensor SliceBatch(const Tensor& data, int start, int count) {
  Tensor::Shape shape = data.shape();
  int total = shape[0];
  DETA_CHECK_LE(start + count, total);
  int64_t row = data.numel() / total;
  shape[0] = count;
  Tensor out(shape);
  std::copy(data.data() + start * row, data.data() + (start + count) * row, out.data());
  return out;
}

// Correct argmax predictions among a batch's logits, whose rows are labels[start...].
int CountCorrect(const Tensor& logits, const std::vector<int>& labels, int start) {
  int count = logits.dim(0);
  int classes = logits.dim(1);
  int correct = 0;
  for (int i = 0; i < count; ++i) {
    const float* row = logits.data() + static_cast<int64_t>(i) * classes;
    int best = 0;
    for (int c = 1; c < classes; ++c) {
      if (row[c] > row[best]) {
        best = c;
      }
    }
    if (best == labels[static_cast<size_t>(start + i)]) {
      ++correct;
    }
  }
  return correct;
}

// A batch's summed cross-entropy: its mean loss times its size.
double BatchLossSum(const Var& logits, const std::vector<int>& labels, int start,
                    int classes) {
  int count = logits.value().dim(0);
  std::vector<int> batch_labels(labels.begin() + start, labels.begin() + start + count);
  Var loss = ag::SoftmaxCrossEntropy(logits, Var(OneHot(batch_labels, classes)));
  return static_cast<double>(loss.value()[0]) * count;
}

}  // namespace

double Accuracy(Model& model, const Tensor& inputs, const std::vector<int>& labels,
                int batch_size) {
  int total = inputs.dim(0);
  DETA_CHECK_EQ(static_cast<size_t>(total), labels.size());
  int correct = 0;
  for (int start = 0; start < total; start += batch_size) {
    int count = std::min(batch_size, total - start);
    Var logits = model.Forward(Var(SliceBatch(inputs, start, count)));
    correct += CountCorrect(logits.value(), labels, start);
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

double MeanLoss(Model& model, const Tensor& inputs, const std::vector<int>& labels,
                int classes, int batch_size) {
  int total = inputs.dim(0);
  DETA_CHECK_EQ(static_cast<size_t>(total), labels.size());
  double loss_sum = 0.0;
  for (int start = 0; start < total; start += batch_size) {
    int count = std::min(batch_size, total - start);
    Var logits = model.Forward(Var(SliceBatch(inputs, start, count)));
    loss_sum += BatchLossSum(logits, labels, start, classes);
  }
  return loss_sum / static_cast<double>(total);
}

Evaluation Evaluate(Model& model, const Tensor& inputs, const std::vector<int>& labels,
                    int classes, int batch_size) {
  int total = inputs.dim(0);
  DETA_CHECK_EQ(static_cast<size_t>(total), labels.size());
  double loss_sum = 0.0;
  int correct = 0;
  for (int start = 0; start < total; start += batch_size) {
    int count = std::min(batch_size, total - start);
    Var logits = model.Forward(Var(SliceBatch(inputs, start, count)));
    loss_sum += BatchLossSum(logits, labels, start, classes);
    correct += CountCorrect(logits.value(), labels, start);
  }
  return {loss_sum / static_cast<double>(total),
          static_cast<double>(correct) / static_cast<double>(total)};
}

}  // namespace deta::nn
