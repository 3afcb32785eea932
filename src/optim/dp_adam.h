// DP-Adam (extension, paper §VII future work): Adam moment estimation
// applied to the *noisy* flat gradient produced by any perturber. The
// privacy analysis is unchanged because Adam post-processes the private
// gradient.

#ifndef GEODP_OPTIM_DP_ADAM_H_
#define GEODP_OPTIM_DP_ADAM_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace geodp {

/// Serializable snapshot of a FlatAdam: both moment vectors and the bias-
/// correction step counter.
struct FlatAdamState {
  Tensor m;
  Tensor v;
  int64_t step = 0;
};

/// Adam hyperparameters.
struct AdamOptions {
  double learning_rate = 0.01;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Adam over a flat gradient vector, applied to a parameter list laid out
/// the same way FlattenGradients orders them.
class FlatAdam {
 public:
  FlatAdam(int64_t flat_dim, AdamOptions options);

  /// One Adam update using `flat_gradient` (typically a perturbed private
  /// gradient); writes the update into the parameters.
  void Step(const std::vector<Parameter*>& params,
            const Tensor& flat_gradient);

  int64_t step_count() const { return step_; }

  /// Checkpoint support: snapshot / restore moments and step counter.
  /// Moments of another size fail with FailedPrecondition.
  FlatAdamState ExportState() const;
  Status ImportState(const FlatAdamState& state);

 private:
  AdamOptions options_;
  Tensor m_;  // first moment
  Tensor v_;  // second moment
  int64_t step_ = 0;
};

}  // namespace geodp

#endif  // GEODP_OPTIM_DP_ADAM_H_
