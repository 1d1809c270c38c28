// Finite-difference verification of every differentiable op, first and second order.
// Second-order correctness is what the DLG/iDLG/IG attacks depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"

namespace deta::autograd {
namespace {

using ScalarFn = std::function<Var(const Var&)>;

Tensor NumericalGradient(const std::function<float(const Tensor&)>& f, const Tensor& x,
                         float eps = 1e-3f) {
  Tensor g(x.shape());
  Tensor probe = x;
  for (int64_t i = 0; i < x.numel(); ++i) {
    float original = probe[i];
    probe[i] = original + eps;
    float fp = f(probe);
    probe[i] = original - eps;
    float fm = f(probe);
    probe[i] = original;
    g[i] = (fp - fm) / (2.0f * eps);
  }
  return g;
}

void ExpectGradMatches(const ScalarFn& fn, const Tensor& x0, float tol = 2e-2f) {
  Var x(x0, /*requires_grad=*/true);
  Var loss = fn(x);
  ASSERT_EQ(loss.numel(), 1);
  std::vector<Var> grads = Grad(loss, {x});
  Tensor numeric = NumericalGradient(
      [&](const Tensor& t) { return fn(Var(t)).value()[0]; }, x0);
  float scale = std::max(1.0f, numeric.Norm());
  EXPECT_LT(MaxAbsDiff(grads[0].value(), numeric) / scale, tol);
}

struct OpCase {
  const char* name;
  ScalarFn fn;
  Tensor::Shape shape;
};

// gtest lists each case with its printed GetParam(), and gtest_discover_tests folds
// that into the CTest name. The default printer dumps the struct's bytes, pointers
// included, so the names changed on every run of the binary; print the case name.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

class GradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradCheckTest, MatchesFiniteDifference) {
  Rng rng(42);
  const OpCase& c = GetParam();
  Tensor x0 = Tensor::Gaussian(c.shape, rng, 0.1f, 0.8f);
  ExpectGradMatches(c.fn, x0);
}

Tensor FixedTensor(Tensor::Shape shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Gaussian(std::move(shape), rng, 0.0f, 1.0f);
}

const OpCase kOpCases[] = {
    {"mul_self", [](const Var& x) { return SumAll(Mul(x, x)); }, {3, 4}},
    {"add_sub_neg",
     [](const Var& x) {
       return Add(SumAll(Mul(Add(x, Neg(x)), x)), SumAll(Mul(Sub(x, MulScalar(x, 0.5f)), x)));
     },
     {3, 4}},
    {"scalar_ops",
     [](const Var& x) { return SumAll(Mul(AddScalar(MulScalar(x, 2.0f), 1.0f), x)); },
     {2, 5}},
    {"recip",
     [](const Var& x) { return SumAll(Recip(AddScalar(Mul(x, x), 2.0f))); },
     {3, 3}},
    {"scale_by_scalar",
     [](const Var& x) {
       Var s = SumAll(Mul(x, x));
       return SumAll(ScaleByScalar(x, MulScalar(s, 0.1f)));
     },
     {2, 3}},
    {"sigmoid", [](const Var& x) { return SumAll(Sigmoid(x)); }, {3, 4}},
    {"tanh", [](const Var& x) { return SumAll(Mul(Tanh(x), Tanh(x))); }, {3, 4}},
    {"exp_log",
     [](const Var& x) { return SumAll(Log(AddScalar(Exp(MulScalar(x, 0.5f)), 1.0f))); },
     {3, 4}},
    {"sqrt",
     [](const Var& x) { return SumAll(Sqrt(AddScalar(Mul(x, x), 1.0f))); },
     {3, 4}},
    {"abs", [](const Var& x) { return SumAll(Abs(x)); }, {4, 4}},
    {"reshape_transpose",
     [](const Var& x) {
       Var r = Reshape(x, {4, 3});
       return SumAll(Mul(Transpose(r), Transpose(r)));
     },
     {3, 4}},
    {"matmul",
     [](const Var& x) {
       Var w(FixedTensor({4, 2}, 7));
       Var y = MatMul(x, w);
       return SumAll(Mul(y, Sigmoid(y)));
     },
     {3, 4}},
    {"sum_rows_row_sum",
     [](const Var& x) {
       return Add(SumAll(Mul(SumRows(x), SumRows(x))), SumAll(Mul(RowSum(x), RowSum(x))));
     },
     {3, 4}},
    {"row_broadcasts",
     [](const Var& x) {
       Var v(FixedTensor({4}, 8));
       Var c(FixedTensor({3}, 9));
       return SumAll(Mul(AddRowVec(x, v), SubColVec(x, c)));
     },
     {3, 4}},
    {"broadcast_scalar",
     [](const Var& x) {
       Var s = MeanAll(x);
       return SumAll(Mul(BroadcastScalar(s, {3, 4}), x));
     },
     {3, 4}},
    {"slice_pad",
     [](const Var& x) {
       Var f = Flatten(x);
       Var s = Slice1D(f, 2, 6);
       Var p = PadSlice1D(s, 1, 12);
       return SumAll(Mul(p, p));
     },
     {3, 4}},
    {"gather_scatter",
     [](const Var& x) {
       Var f = Flatten(x);
       Var g = Gather1D(f, {0, 3, 3, 7, 11});
       Var sc = Scatter1D(g, {1, 2, 2, 0, 4}, 6);
       return SumAll(Mul(sc, sc));
     },
     {3, 4}},
    {"concat",
     [](const Var& x) {
       Var c = ConcatFlat({x, MulScalar(x, 2.0f), Reshape(x, {12})});
       return SumAll(Mul(c, c));
     },
     {3, 4}},
    {"softmax_ce",
     [](const Var& x) {
       Tensor one_hot({3, 4});
       one_hot[0] = 1;
       one_hot[5] = 1;
       one_hot[10] = 1;
       return SoftmaxCrossEntropy(x, Var(one_hot));
     },
     {3, 4}},
    {"mse", [](const Var& x) { return MseLoss(x, Var(FixedTensor({3, 4}, 10))); }, {3, 4}},
    {"total_variation",
     [](const Var& x) { return TotalVariation(Reshape(x, {1, 1, 3, 4})); },
     {3, 4}},
    {"cosine",
     [](const Var& x) {
       return CosineDistanceLoss(Flatten(x), Flatten(Var(FixedTensor({3, 4}, 11))));
     },
     {3, 4}},
    {"sq_diff",
     [](const Var& x) {
       return SquaredDifferenceSum(Flatten(x), Flatten(Var(FixedTensor({3, 4}, 12))));
     },
     {3, 4}},
    {"conv_stack",
     [](const Var& x) {
       ConvGeometry geom{1, 2, 4, 4, 3, 3, 1, 1};
       Var img = Reshape(x, {1, 2, 4, 4});
       Var cols = Im2Col(img, geom);
       Var w(FixedTensor({3, 18}, 13));
       Var y = MatMul(cols, Transpose(w));
       return SumAll(Mul(y, Tanh(y)));
     },
     {2, 16}},
    {"max_pool",
     [](const Var& x) {
       Var img = Reshape(x, {1, 2, 4, 4});
       Var p = MaxPool(img, 2, 2);
       return SumAll(Mul(p, p));
     },
     {2, 16}},
    {"avg_pool",
     [](const Var& x) {
       Var img = Reshape(x, {1, 2, 4, 4});
       Var p = AvgPool(img, 2, 2);
       return SumAll(Exp(p));
     },
     {2, 16}},
    {"relu", [](const Var& x) { return SumAll(Mul(Relu(x), Relu(x))); }, {4, 5}},
};

std::string OpCaseName(const ::testing::TestParamInfo<OpCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllOps, GradCheckTest, ::testing::ValuesIn(kOpCases), OpCaseName);

TEST(AutogradTest, LeafProperties) {
  Var leaf(Tensor({2}, {1, 2}), true);
  EXPECT_TRUE(leaf.requires_grad());
  EXPECT_TRUE(leaf.defined());
  Var detached = leaf.Detach();
  EXPECT_FALSE(detached.requires_grad());
  Var undefined;
  EXPECT_FALSE(undefined.defined());
}

TEST(AutogradTest, NoGradThroughDetach) {
  Var x(Tensor({2}, {3, 4}), true);
  Var y = SumAll(Mul(x.Detach(), x));  // only one factor tracks gradient
  std::vector<Var> g = Grad(y, {x});
  EXPECT_FLOAT_EQ(g[0].value()[0], 3.0f);
  EXPECT_FLOAT_EQ(g[0].value()[1], 4.0f);
}

TEST(AutogradTest, UnusedInputGetsZeroGradient) {
  Var x(Tensor({2}, {1, 2}), true);
  Var unused(Tensor({3}, {1, 1, 1}), true);
  Var loss = SumAll(Mul(x, x));
  std::vector<Var> g = Grad(loss, {x, unused});
  EXPECT_EQ(g[1].value().numel(), 3);
  EXPECT_FLOAT_EQ(g[1].value()[0], 0.0f);
}

TEST(AutogradTest, GradAccumulatesOverFanOut) {
  Var x(Tensor({1}, {3.0f}), true);
  Var y = Add(Mul(x, x), Mul(x, x));  // 2x^2, dy/dx = 4x = 12
  std::vector<Var> g = Grad(y, {x});
  EXPECT_FLOAT_EQ(g[0].value()[0], 12.0f);
}

TEST(AutogradTest, NonScalarGradRequiresSeed) {
  Var x(Tensor({2}, {1, 2}), true);
  Var y = Mul(x, x);
  EXPECT_THROW(Grad(y, {x}), CheckFailure);
  Var seed(Tensor({2}, {1, 1}));
  EXPECT_NO_THROW(Grad(y, {x}, false, seed));
}

TEST(AutogradTest, MutationOnNonLeafThrows) {
  Var x(Tensor({2}, {1, 2}), true);
  Var y = Mul(x, x);
  EXPECT_THROW(y.mutable_value(), CheckFailure);
}

// d/dx of (dL/dx · c) — the Hessian-vector product the attacks rely on.
TEST(AutogradTest, SecondOrderSigmoidHvp) {
  Rng rng(17);
  Tensor x0 = Tensor::Gaussian({3, 3}, rng, 0.0f, 1.0f);
  Tensor c = Tensor::Gaussian({3, 3}, rng, 0.0f, 1.0f);
  auto inner = [](const Var& x) { return SumAll(Mul(Sigmoid(x), Mul(x, x))); };

  Var x(x0, true);
  std::vector<Var> g1 = Grad(inner(x), {x}, /*create_graph=*/true);
  Var hvp_target = SumAll(Mul(g1[0], Var(c)));
  std::vector<Var> g2 = Grad(hvp_target, {x});

  Tensor numeric = NumericalGradient(
      [&](const Tensor& t) {
        Var v(t, true);
        std::vector<Var> gi = Grad(inner(v), {v});
        return Mul(gi[0].value(), c).SumValue();
      },
      x0);
  float scale = std::max(1.0f, numeric.Norm());
  EXPECT_LT(MaxAbsDiff(g2[0].value(), numeric) / scale, 2e-2f);
}

// Full DLG-shaped double backprop: gradient of a gradient-matching loss w.r.t. the input.
TEST(AutogradTest, SecondOrderGradientMatching) {
  Rng rng(23);
  Tensor w0 = Tensor::Gaussian({4, 5}, rng, 0.0f, 0.5f);
  Tensor x0 = Tensor::Gaussian({1, 4}, rng, 0.0f, 1.0f);
  Tensor target({1, 5});
  target[2] = 1.0f;

  auto model_grad = [&](const Var& input, const Var& weights) {
    Var logits = MatMul(input, weights);
    Var loss = SoftmaxCrossEntropy(logits, Var(target));
    return Grad(loss, {weights}, /*create_graph=*/true)[0];
  };

  Var w_victim(w0, true);
  Var x_victim(Tensor::Gaussian({1, 4}, rng, 0.0f, 1.0f));
  Tensor victim_grad = model_grad(x_victim, w_victim).value();

  auto attack_loss = [&](const Var& x_dummy) {
    Var w(w0, true);
    Var dummy_grad = model_grad(x_dummy, w);
    return SquaredDifferenceSum(Flatten(dummy_grad), Flatten(Var(victim_grad)));
  };

  Var x_dummy(x0, true);
  std::vector<Var> analytic = Grad(attack_loss(x_dummy), {x_dummy});
  Tensor numeric = NumericalGradient(
      [&](const Tensor& t) { return attack_loss(Var(t, true)).value()[0]; }, x0);
  float scale = std::max(1.0f, numeric.Norm());
  EXPECT_LT(MaxAbsDiff(analytic[0].value(), numeric) / scale, 2e-2f);
}

TEST(AutogradTest, CreateGraphFalseDetachesResult) {
  Var x(Tensor({1}, {2.0f}), true);
  std::vector<Var> g = Grad(SumAll(Mul(x, x)), {x}, /*create_graph=*/false);
  EXPECT_FALSE(g[0].requires_grad());
  std::vector<Var> g2 = Grad(SumAll(Mul(x, x)), {x}, /*create_graph=*/true);
  EXPECT_TRUE(g2[0].requires_grad());
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  // Iterative topo sort must handle long chains.
  Var x(Tensor({1}, {0.001f}), true);
  Var y = x;
  for (int i = 0; i < 5000; ++i) {
    y = AddScalar(MulScalar(y, 0.9999f), 1e-7f);
  }
  Var loss = SumAll(y);
  std::vector<Var> g = Grad(loss, {x});
  EXPECT_GT(g[0].value()[0], 0.0f);
}

}  // namespace
}  // namespace deta::autograd
