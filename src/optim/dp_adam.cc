#include "optim/dp_adam.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

FlatAdam::FlatAdam(int64_t flat_dim, AdamOptions options)
    : options_(options), m_({flat_dim}), v_({flat_dim}) {
  GEODP_CHECK_GT(flat_dim, 0);
  GEODP_CHECK_GT(options_.learning_rate, 0.0);
  GEODP_CHECK(options_.beta1 >= 0.0 && options_.beta1 < 1.0);
  GEODP_CHECK(options_.beta2 >= 0.0 && options_.beta2 < 1.0);
  GEODP_CHECK_GT(options_.epsilon, 0.0);
}

FlatAdamState FlatAdam::ExportState() const {
  FlatAdamState state;
  state.m = m_;
  state.v = v_;
  state.step = step_;
  return state;
}

Status FlatAdam::ImportState(const FlatAdamState& state) {
  if (state.m.numel() != m_.numel() || state.v.numel() != v_.numel() ||
      state.step < 0) {
    return Status::FailedPrecondition(
        "optimizer state does not fit this model");
  }
  m_ = state.m;
  v_ = state.v;
  step_ = state.step;
  return Status::Ok();
}

void FlatAdam::Step(const std::vector<Parameter*>& params,
                    const Tensor& flat_gradient) {
  GEODP_CHECK_EQ(flat_gradient.numel(), m_.numel());
  ++step_;
  const double b1 = options_.beta1;
  const double b2 = options_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(step_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(step_));

  Tensor update({flat_gradient.numel()});
  for (int64_t i = 0; i < flat_gradient.numel(); ++i) {
    const double g = flat_gradient[i];
    const double m = b1 * static_cast<double>(m_[i]) + (1.0 - b1) * g;
    const double v = b2 * static_cast<double>(v_[i]) + (1.0 - b2) * g * g;
    m_[i] = static_cast<float>(m);
    v_[i] = static_cast<float>(v);
    const double m_hat = m / bias1;
    const double v_hat = v / bias2;
    update[i] =
        static_cast<float>(m_hat / (std::sqrt(v_hat) + options_.epsilon));
  }
  ApplyFlatUpdate(params, update, options_.learning_rate);
}

}  // namespace geodp
