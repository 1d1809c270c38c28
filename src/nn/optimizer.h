// First-order optimizers (SGD with momentum, Adam) plus the two attack optimizers the
// paper's evaluated attacks use: L-BFGS (DLG/iDLG) and signed Adam (IG).
#ifndef DETA_NN_OPTIMIZER_H_
#define DETA_NN_OPTIMIZER_H_

#include <functional>
#include <vector>

#include "nn/layers.h"

namespace deta::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  // Applies one update; grads[i] matches params[i] in shape.
  virtual void Step(std::vector<Var>& params, const std::vector<Tensor>& grads) = 0;
};

class Sgd : public Optimizer {
 public:
  explicit Sgd(float lr, float momentum = 0.0f) : lr_(lr), momentum_(momentum) {}
  void Step(std::vector<Var>& params, const std::vector<Tensor>& grads) override;
  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  float lr_;
  float momentum_;
  std::vector<Tensor> velocity_;
};

class Adam : public Optimizer {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  void Step(std::vector<Var>& params, const std::vector<Tensor>& grads) override;

  // IG variant: applies Adam to sign(grad) instead of grad.
  void set_use_grad_sign(bool v) { use_grad_sign_ = v; }
  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  float lr_, beta1_, beta2_, eps_;
  bool use_grad_sign_ = false;
  int t_ = 0;
  std::vector<Tensor> m_, v_;
};

// Limited-memory BFGS with backtracking Armijo line search, as used by the DLG attack.
// Operates on a single flat parameter vector through a loss closure.
class Lbfgs {
 public:
  struct Options {
    int history = 10;
    int max_line_search_steps = 12;
    float initial_step = 1.0f;
    float armijo_c1 = 1e-4f;
    float min_step = 1e-10f;
  };

  // Evaluates loss and gradient at |x|; returns loss, fills |grad| (same size as |x|).
  using LossFn = std::function<double(const std::vector<float>& x, std::vector<float>& grad)>;

  Lbfgs() : options_(Options{}) {}
  explicit Lbfgs(const Options& options) : options_(options) {}

  // One L-BFGS iteration updating |x| in place; returns the loss at the new point.
  // |loss| must be the value at the current x (pass the previous return, or evaluate).
  double Step(const LossFn& fn, std::vector<float>& x);

  void Reset();

 private:
  Options options_;
  std::vector<std::vector<float>> s_history_;  // x_{k+1} - x_k
  std::vector<std::vector<float>> y_history_;  // g_{k+1} - g_k
  std::vector<float> last_x_, last_grad_;
  bool has_last_ = false;
};

}  // namespace deta::nn

#endif  // DETA_NN_OPTIMIZER_H_
