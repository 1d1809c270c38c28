#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace deta::nn {

void Sgd::Step(std::vector<Var>& params, const std::vector<Tensor>& grads) {
  DETA_CHECK_EQ(params.size(), grads.size());
  if (momentum_ != 0.0f && velocity_.empty()) {
    for (const Var& p : params) {
      velocity_.push_back(Tensor::Zeros(p.shape()));
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& value = params[i].mutable_value();
    DETA_CHECK(value.SameShape(grads[i]));
    if (momentum_ != 0.0f) {
      velocity_[i].Scale(momentum_);
      velocity_[i].AddScaled(grads[i], 1.0f);
      value.AddScaled(velocity_[i], -lr_);
    } else {
      value.AddScaled(grads[i], -lr_);
    }
  }
}

void Adam::Step(std::vector<Var>& params, const std::vector<Tensor>& grads) {
  DETA_CHECK_EQ(params.size(), grads.size());
  if (m_.empty()) {
    for (const Var& p : params) {
      m_.push_back(Tensor::Zeros(p.shape()));
      v_.push_back(Tensor::Zeros(p.shape()));
    }
  }
  ++t_;
  float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& value = params[i].mutable_value();
    const Tensor& g = grads[i];
    DETA_CHECK(value.SameShape(g));
    for (int64_t j = 0; j < value.numel(); ++j) {
      float gj = g[j];
      if (use_grad_sign_) {
        gj = gj > 0.0f ? 1.0f : (gj < 0.0f ? -1.0f : 0.0f);
      }
      m_[i][j] = beta1_ * m_[i][j] + (1.0f - beta1_) * gj;
      v_[i][j] = beta2_ * v_[i][j] + (1.0f - beta2_) * gj * gj;
      float m_hat = m_[i][j] / bias1;
      float v_hat = v_[i][j] / bias2;
      value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

namespace {

double Dot(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return s;
}

}  // namespace

void Lbfgs::Reset() {
  s_history_.clear();
  y_history_.clear();
  has_last_ = false;
}

double Lbfgs::Step(const LossFn& fn, std::vector<float>& x) {
  const size_t n = x.size();
  std::vector<float> grad(n);
  double loss = fn(x, grad);

  // Update curvature history from the previous step.
  if (has_last_) {
    std::vector<float> s(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      s[i] = x[i] - last_x_[i];
      y[i] = grad[i] - last_grad_[i];
    }
    if (Dot(s, y) > 1e-10) {  // curvature condition
      s_history_.push_back(std::move(s));
      y_history_.push_back(std::move(y));
      if (static_cast<int>(s_history_.size()) > options_.history) {
        s_history_.erase(s_history_.begin());
        y_history_.erase(y_history_.begin());
      }
    }
  }

  // Two-loop recursion for the search direction d = -H grad.
  std::vector<float> q = grad;
  size_t h = s_history_.size();
  std::vector<double> alpha(h), rho(h);
  for (size_t i = h; i-- > 0;) {
    rho[i] = 1.0 / Dot(y_history_[i], s_history_[i]);
    alpha[i] = rho[i] * Dot(s_history_[i], q);
    for (size_t j = 0; j < n; ++j) {
      q[j] -= static_cast<float>(alpha[i]) * y_history_[i][j];
    }
  }
  double gamma = 1.0;
  if (h > 0) {
    gamma = Dot(s_history_[h - 1], y_history_[h - 1]) /
            Dot(y_history_[h - 1], y_history_[h - 1]);
  }
  for (auto& v : q) {
    v = static_cast<float>(v * gamma);
  }
  for (size_t i = 0; i < h; ++i) {
    double beta = rho[i] * Dot(y_history_[i], q);
    for (size_t j = 0; j < n; ++j) {
      q[j] += static_cast<float>((alpha[i] - beta)) * s_history_[i][j];
    }
  }
  // Direction is -q.
  double directional = -Dot(q, grad);
  if (directional >= 0.0) {
    // Not a descent direction (can happen after noisy curvature); fall back to -grad.
    q = grad;
    directional = -Dot(grad, grad);
  }

  // Backtracking Armijo line search.
  last_x_ = x;
  last_grad_ = grad;
  has_last_ = true;

  float step = options_.initial_step;
  std::vector<float> candidate(n);
  std::vector<float> trial_grad(n);
  auto evaluate = [&](float s) {
    for (size_t i = 0; i < n; ++i) {
      candidate[i] = x[i] - s * q[i];
    }
    return fn(candidate, trial_grad);
  };

  double best_loss = loss;
  bool accepted = false;
  for (int ls = 0; ls < options_.max_line_search_steps; ++ls) {
    double trial = evaluate(step);
    if (trial <= loss + options_.armijo_c1 * step * directional) {
      best_loss = trial;
      accepted = true;
      break;
    }
    step *= 0.5f;
    if (step < options_.min_step) {
      break;
    }
  }
  if (accepted) {
    // Backtracking alone cannot grow an underscaled quasi-Newton step, which stalls
    // progress (and starves the curvature history of usable pairs). Greedily expand while
    // doubling keeps decreasing the objective.
    std::vector<float> best_candidate = candidate;
    for (int expand = 0; expand < 10; ++expand) {
      float doubled = step * 2.0f;
      double trial = evaluate(doubled);
      if (trial >= best_loss) {
        break;
      }
      best_loss = trial;
      best_candidate = candidate;
      step = doubled;
    }
    x = best_candidate;
  } else {
    // Tiny gradient step as a last resort keeps the iteration moving.
    float tiny = options_.min_step * 100.0f;
    for (size_t i = 0; i < n; ++i) {
      x[i] -= tiny * grad[i];
    }
    best_loss = loss;
  }
  return best_loss;
}

}  // namespace deta::nn
