// Per-sample gradient computation for DP training (the "microbatch of 1"
// semantics of Abadi et al.): each example is run through the model
// individually, its flattened gradient is clipped, and the clipped
// gradients are averaged — the quantity the perturbers then add noise to
// (paper Eq. 7-8).

#ifndef GEODP_OPTIM_DP_SGD_H_
#define GEODP_OPTIM_DP_SGD_H_

#include <cstdint>
#include <vector>

#include "clip/clipping.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/sequential.h"

namespace geodp {

/// Result of one private gradient computation over a batch.
/// The step releases only averaged_clipped (plus noise); averaged_raw and
/// sample_grad_norms feed the step record alone, so they are filled only
/// when the gradient functions are called with for_step_record.
struct PrivateBatchGradient {
  Tensor averaged_clipped;  // (1/B) * sum_j clip(g_j)
  // (1/B) * sum_j g_j, the noise-free reference; empty unless
  // for_step_record (the step record's raw_grad_norm is its only reader).
  Tensor averaged_raw;
  double mean_loss = 0.0;   // mean per-sample loss over the batch
  std::vector<double> sample_losses;  // per-sample losses, batch order
  // Pre-clip L2 norm of each per-sample gradient, batch order; empty
  // unless for_step_record (the step record's clip fraction).
  std::vector<double> sample_grad_norms;  // geodp: per-sample
  int64_t batch_size = 0;
  // Samples whose loss or gradient came out non-finite (NaN/Inf). They
  // contribute zero gradient — the averages stay finite and the update is
  // still divided by the full batch size, so the sensitivity bound is
  // unaffected — and are excluded from mean_loss. sample_losses keeps the
  // raw (possibly non-finite) values so it stays batch-aligned.
  int64_t nonfinite_skipped = 0;
};

/// Runs each indexed example through the model with batch size 1 (the
/// backward walk ends at the first parameterized layer, see
/// Sequential::Backward), clips its flattened gradient with
/// `clipper`, and returns the clipped average. Set `for_step_record` to
/// also fill averaged_raw and sample_grad_norms. Leaves the accumulated
/// parameter gradients zeroed.
PrivateBatchGradient ComputePerSampleGradients(
    Sequential& model, SoftmaxCrossEntropy& loss,
    const InMemoryDataset& dataset, const std::vector<int64_t>& indices,
    const Clipper& clipper, bool for_step_record = false);

/// Mean loss of the model on up to `max_examples` examples (0 = all),
/// evaluated in batches. Does not touch gradients.
double EvaluateMeanLoss(Sequential& model, const InMemoryDataset& dataset,
                        int64_t max_examples = 0, int64_t batch_size = 128);

/// Classification accuracy of the model on the dataset.
double EvaluateAccuracy(Sequential& model, const InMemoryDataset& dataset,
                        int64_t batch_size = 128);

}  // namespace geodp

#endif  // GEODP_OPTIM_DP_SGD_H_
