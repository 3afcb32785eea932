// Shared helpers for the unit tests: finite-difference gradient checking
// against the analytic backward passes.

#ifndef GEODP_TESTS_TEST_UTIL_H_
#define GEODP_TESTS_TEST_UTIL_H_

#include <cmath>

#include "base/rng.h"
#include "nn/module.h"
#include "nn/parameter.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace testing_util {

// Scalar objective used by the checks: f(x) = sum_i c_i * layer(x)_i with
// fixed random coefficients c, whose analytic gradient seed is simply c.
struct GradCheckResult {
  double max_input_error = 0.0;
  double max_param_error = 0.0;
};

inline double EvalObjective(Layer& layer, const Tensor& input,
                            const Tensor& coefficients) {
  const Tensor out = layer.Forward(input);
  return Dot(out, coefficients);
}

// Compares the layer's analytic input/parameter gradients against central
// finite differences. `epsilon` is the probe step.
inline GradCheckResult CheckGradients(Layer& layer, const Tensor& input,
                                      Rng& rng, double epsilon = 1e-3) {
  // Forward once to learn the output shape, then fix coefficients.
  Tensor probe_out = layer.Forward(input);
  Tensor coefficients = Tensor::Randn(probe_out.shape(), rng);

  // Analytic pass.
  const std::vector<Parameter*> params = layer.Parameters();
  ZeroGradients(params);
  layer.Forward(input);
  const Tensor analytic_input_grad =
      layer.Backward(coefficients, nullptr, true);
  const Tensor analytic_param_grad = FlattenGradients(params);

  GradCheckResult result;

  // Numeric input gradient.
  Tensor x = input;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + static_cast<float>(epsilon);
    const double up = EvalObjective(layer, x, coefficients);
    x[i] = saved - static_cast<float>(epsilon);
    const double down = EvalObjective(layer, x, coefficients);
    x[i] = saved;
    const double numeric = (up - down) / (2.0 * epsilon);
    result.max_input_error = std::max(
        result.max_input_error,
        std::fabs(numeric - static_cast<double>(analytic_input_grad[i])));
  }

  // Numeric parameter gradient.
  int64_t flat_offset = 0;
  for (Parameter* p : params) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(epsilon);
      const double up = EvalObjective(layer, input, coefficients);
      p->value[i] = saved - static_cast<float>(epsilon);
      const double down = EvalObjective(layer, input, coefficients);
      p->value[i] = saved;
      const double numeric = (up - down) / (2.0 * epsilon);
      result.max_param_error =
          std::max(result.max_param_error,
                   std::fabs(numeric -
                             static_cast<double>(
                                 analytic_param_grad[flat_offset + i])));
    }
    flat_offset += p->value.numel();
  }
  return result;
}

}  // namespace testing_util
}  // namespace geodp

#endif  // GEODP_TESTS_TEST_UTIL_H_
