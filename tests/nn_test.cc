#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "nn/models.h"
#include "nn/optimizer.h"

namespace deta::nn {
namespace {

namespace ag = autograd;

TEST(LayersTest, LinearShapesAndParams) {
  Rng rng(1);
  Linear linear(4, 3, rng);
  Var x(Tensor({2, 4}, {1, 0, 0, 0, 0, 1, 0, 0}));
  Var y = linear.Forward(x);
  EXPECT_EQ(y.value().shape(), (Tensor::Shape{2, 3}));
  EXPECT_EQ(linear.Params().size(), 2u);
  EXPECT_EQ(linear.Params()[0].numel(), 12);
  EXPECT_EQ(linear.Params()[1].numel(), 3);
}

TEST(LayersTest, Conv2dOutputShape) {
  Rng rng(2);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  Var x(Tensor({2, 3, 8, 8}));
  Var y = conv.Forward(x);
  EXPECT_EQ(y.value().shape(), (Tensor::Shape{2, 8, 8, 8}));
  Conv2d strided(3, 4, 5, 2, 2, rng);
  Var y2 = strided.Forward(x);
  EXPECT_EQ(y2.value().shape(), (Tensor::Shape{2, 4, 4, 4}));
}

TEST(LayersTest, Conv2dMatchesDirectConvolution) {
  // 1 input channel, 1 output channel, known kernel: verify against a hand computation.
  Rng rng(3);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  // Overwrite weights with a simple box filter, bias with 1.
  conv.Params()[0].mutable_value().Fill(1.0f);
  conv.Params()[1].mutable_value().Fill(1.0f);
  Tensor img({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Var y = conv.Forward(Var(img));
  EXPECT_EQ(y.value().numel(), 1);
  EXPECT_FLOAT_EQ(y.value()[0], 45.0f + 1.0f);
}

TEST(LayersTest, FlattenAndPoolShapes) {
  Rng rng(4);
  FlattenLayer flatten;
  Var x(Tensor({2, 3, 4, 4}));
  EXPECT_EQ(flatten.Forward(x).value().shape(), (Tensor::Shape{2, 48}));
  MaxPool2dLayer pool(2, 2);
  EXPECT_EQ(pool.Forward(x).value().shape(), (Tensor::Shape{2, 3, 2, 2}));
  AvgPool2dLayer apool(2, 2);
  EXPECT_EQ(apool.Forward(x).value().shape(), (Tensor::Shape{2, 3, 2, 2}));
}

TEST(LayersTest, ResidualBlockPreservesShape) {
  Rng rng(5);
  ResidualBlock block(4, rng);
  Var x(Tensor::Gaussian({1, 4, 6, 6}, rng, 0, 1));
  Var y = block.Forward(x);
  EXPECT_EQ(y.value().shape(), x.value().shape());
  EXPECT_EQ(block.Params().size(), 4u);
}

TEST(LayersTest, SequentialComposesAndCollectsParams) {
  Rng rng(6);
  auto net = std::make_unique<Sequential>();
  net->Emplace<Linear>(4, 8, rng);
  net->Emplace<ReluLayer>();
  net->Emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net->NumLayers(), 3u);
  EXPECT_EQ(net->Params().size(), 4u);
  Var y = net->Forward(Var(Tensor({1, 4})));
  EXPECT_EQ(y.value().shape(), (Tensor::Shape{1, 2}));
}

TEST(LayersTest, ParamFlattenLoadRoundTrip) {
  Rng rng(7);
  auto model = BuildMlp(10, {8}, 4, rng);
  std::vector<float> flat = model->GetFlatParams();
  EXPECT_EQ(static_cast<int64_t>(flat.size()), model->NumParameters());
  std::vector<float> modified = flat;
  for (auto& v : modified) {
    v += 1.0f;
  }
  model->SetFlatParams(modified);
  EXPECT_EQ(model->GetFlatParams(), modified);
  EXPECT_THROW(model->SetFlatParams(std::vector<float>(3)), CheckFailure);
}

TEST(ModelsTest, ZooParameterCountsAndForward) {
  Rng rng(8);
  struct Case {
    std::unique_ptr<Model> model;
    Tensor input;
    int classes;
  };
  std::vector<Case> cases;
  cases.push_back({BuildLeNet(3, 32, 100, rng), Tensor({1, 3, 32, 32}), 100});
  cases.push_back({BuildConvNet8(1, 28, 10, rng), Tensor({2, 1, 28, 28}), 10});
  cases.push_back({BuildConvNet23(3, 32, 10, rng), Tensor({1, 3, 32, 32}), 10});
  cases.push_back({BuildMiniVgg(1, 64, 16, rng), Tensor({1, 1, 64, 64}), 16});
  cases.push_back({BuildMiniResNet(3, 32, 10, rng), Tensor({1, 3, 32, 32}), 10});
  for (auto& c : cases) {
    EXPECT_GT(c.model->NumParameters(), 1000);
    Var logits = c.model->Forward(Var(c.input));
    EXPECT_EQ(logits.value().dim(0), c.input.dim(0));
    EXPECT_EQ(logits.value().dim(1), c.classes);
  }
}

// The observer's one-pass evaluation must report exactly what the two separate passes
// report, including over a partial last batch (50 = 3 * 16 + 2).
TEST(ModelsTest, EvaluateMatchesMeanLossAndAccuracy) {
  Rng rng(31);
  Tensor images({50, 1, 14, 14});
  std::vector<int> labels(50);
  for (int64_t i = 0; i < images.numel(); ++i) {
    images[i] = rng.NextGaussian();
  }
  for (int& label : labels) {
    label = static_cast<int>(rng.NextBelow(10));
  }
  auto check = [&labels](Model& model, const Tensor& inputs) {
    Evaluation evaluation = Evaluate(model, inputs, labels, 10, 16);
    EXPECT_EQ(evaluation.loss, MeanLoss(model, inputs, labels, 10, 16));
    EXPECT_EQ(evaluation.accuracy, Accuracy(model, inputs, labels, 16));
  };
  check(*BuildMlp(14 * 14, {12}, 10, rng), images.Reshape({50, 14 * 14}));
  check(*BuildConvNet8(1, 14, 10, rng), images);
}

TEST(ModelsTest, OneHotEncoding) {
  Tensor oh = OneHot({2, 0}, 3);
  EXPECT_EQ(oh.shape(), (Tensor::Shape{2, 3}));
  EXPECT_FLOAT_EQ(oh[2], 1.0f);
  EXPECT_FLOAT_EQ(oh[3], 1.0f);
  EXPECT_FLOAT_EQ(oh[0], 0.0f);
  EXPECT_THROW(OneHot({5}, 3), CheckFailure);
}

TEST(OptimizerTest, SgdQuadraticConvergence) {
  // Minimize ||x - 3||^2 with plain SGD and with momentum.
  for (float momentum : {0.0f, 0.9f}) {
    Var x(Tensor({1}, {0.0f}), true);
    std::vector<Var> params{x};
    Sgd opt(0.1f, momentum);
    for (int i = 0; i < 200; ++i) {
      Tensor grad({1}, {2.0f * (x.value()[0] - 3.0f)});
      opt.Step(params, {grad});
    }
    EXPECT_NEAR(x.value()[0], 3.0f, 1e-2f) << "momentum=" << momentum;
  }
}

TEST(OptimizerTest, AdamQuadraticConvergence) {
  Var x(Tensor({2}, {5.0f, -5.0f}), true);
  std::vector<Var> params{x};
  Adam opt(0.2f);
  for (int i = 0; i < 300; ++i) {
    Tensor grad({2}, {2.0f * (x.value()[0] - 1.0f), 2.0f * (x.value()[1] + 2.0f)});
    opt.Step(params, {grad});
  }
  EXPECT_NEAR(x.value()[0], 1.0f, 5e-2f);
  EXPECT_NEAR(x.value()[1], -2.0f, 5e-2f);
}

TEST(OptimizerTest, LbfgsRosenbrock) {
  // Classic Rosenbrock: minimum at (1, 1).
  auto fn = [](const std::vector<float>& x, std::vector<float>& grad) -> double {
    double a = 1.0 - x[0];
    double b = x[1] - static_cast<double>(x[0]) * x[0];
    grad.resize(2);
    grad[0] = static_cast<float>(-2.0 * a - 400.0 * x[0] * b);
    grad[1] = static_cast<float>(200.0 * b);
    return a * a + 100.0 * b * b;
  };
  std::vector<float> x = {-1.2f, 1.0f};
  nn::Lbfgs lbfgs;
  double loss = 1e9;
  for (int i = 0; i < 150; ++i) {
    loss = lbfgs.Step(fn, x);
  }
  EXPECT_LT(loss, 1e-5);
  EXPECT_NEAR(x[0], 1.0f, 1e-2f);
  EXPECT_NEAR(x[1], 1.0f, 1e-2f);
}

TEST(OptimizerTest, SignedAdamIgnoresGradientMagnitude) {
  Var x1(Tensor({1}, {0.0f}), true);
  Var x2(Tensor({1}, {0.0f}), true);
  std::vector<Var> p1{x1}, p2{x2};
  Adam a1(0.1f), a2(0.1f);
  a1.set_use_grad_sign(true);
  a2.set_use_grad_sign(true);
  // Same sign, wildly different magnitudes -> identical trajectories.
  for (int i = 0; i < 10; ++i) {
    a1.Step(p1, {Tensor({1}, {1e-6f})});
    a2.Step(p2, {Tensor({1}, {1e6f})});
  }
  EXPECT_FLOAT_EQ(x1.value()[0], x2.value()[0]);
}

TEST(TrainingTest, LossDecreasesOnToyProblem) {
  Rng rng(10);
  auto model = BuildMlp(8, {16}, 3, rng);
  // Linearly separable toy data.
  Rng data_rng(11);
  Tensor inputs({60, 8});
  std::vector<int> labels(60);
  for (int i = 0; i < 60; ++i) {
    int cls = i % 3;
    labels[static_cast<size_t>(i)] = cls;
    for (int j = 0; j < 8; ++j) {
      inputs[static_cast<int64_t>(i) * 8 + j] =
          data_rng.NextGaussian() * 0.3f + (j % 3 == cls ? 1.5f : 0.0f);
    }
  }
  Tensor one_hot = OneHot(labels, 3);
  Sgd opt(0.1f);
  auto first = ComputeLossAndGrads(*model, inputs, one_hot);
  float loss = first.loss;
  opt.Step(model->params(), first.grads);
  for (int step = 0; step < 100; ++step) {
    auto lg = ComputeLossAndGrads(*model, inputs, one_hot);
    opt.Step(model->params(), lg.grads);
    loss = lg.loss;
  }
  EXPECT_LT(loss, first.loss * 0.3f);
  EXPECT_GT(Accuracy(*model, inputs, labels), 0.9);
  EXPECT_LT(MeanLoss(*model, inputs, labels, 3), 0.5);
}

}  // namespace
}  // namespace deta::nn
