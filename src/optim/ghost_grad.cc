#include "optim/ghost_grad.h"

#include "base/check.h"
#include "clip/ghost_clipping.h"
#include "nn/parameter.h"
#include "obs/trace.h"

namespace geodp {

PrivateBatchGradient ComputeGhostClippedGradients(
    Sequential& model, SoftmaxCrossEntropy& loss,
    const InMemoryDataset& dataset, const std::vector<int64_t>& indices,
    const Clipper& clipper, bool for_step_record) {
  GEODP_CHECK(!indices.empty());
  const std::vector<Parameter*> params = model.Parameters();

  PrivateBatchGradient result;
  result.batch_size = static_cast<int64_t>(indices.size());

  // Pass 1: one batched forward, one batched backward of the summed loss
  // (row b of BackwardSum is the gradient of sample b's own loss). Each
  // layer adds its contribution to the per-sample squared norms and
  // caches what the accumulation passes need; no parameter gradient is
  // written yet.
  std::vector<double> ghost_norm_sq(indices.size(), 0.0);  // geodp: per-sample
  {
    const TraceSpan span("step.ghost_forward_backward");
    ZeroGradients(params);
    const std::vector<int64_t> y = dataset.GatherLabels(indices);
    loss.Forward(model.Forward(dataset.StackImages(indices)), y);
    model.Backward(loss.BackwardSum(), &ghost_norm_sq,  // geodp: per-sample
                   /*input_grad=*/false);
  }

  const GhostClipper ghost(clipper);
  const GhostBatchWeights weights =
      ghost.Weights(ghost_norm_sq, loss.sample_losses());  // geodp: per-sample

  // Pass 2: weighted accumulation of the clipped sum, then, only for a
  // step record, the raw 0/1-weighted noise-free reference sum.
  // Flattening between the passes keeps each sum in its own buffer.
  {
    const TraceSpan span("step.ghost_accumulate");
    // Weights come out of GhostClipper::Weights with the clip threshold
    // already applied (clipped entries) or as 0/1 inclusion indicators
    // (raw entries), so each sample's contribution to the accumulated
    // gradient is sensitivity-bounded from here on.
    // geodp: sensitivity-checked clip scale applied by GhostClipper::Weights
    model.GhostAccumulate(weights.clipped);
    result.averaged_clipped = FlattenGradients(params);
    ZeroGradients(params);
    if (for_step_record) {
      model.GhostAccumulate(weights.raw);
      result.averaged_raw = FlattenGradients(params);
      ZeroGradients(params);
    }
  }

  // Same averaging and bookkeeping semantics as the materialized path:
  // divide by the full batch size (excluded samples contribute exactly
  // zero), average the loss over included samples only.
  const float inv_b = 1.0f / static_cast<float>(result.batch_size);
  result.averaged_clipped.ScaleInPlace(inv_b);
  result.averaged_raw.ScaleInPlace(inv_b);
  result.mean_loss =
      weights.included > 0
          ? weights.included_loss_sum / static_cast<double>(weights.included)
          : 0.0;
  result.sample_losses = loss.sample_losses();
  if (for_step_record)
    result.sample_grad_norms = weights.norms;  // geodp: per-sample
  result.nonfinite_skipped = weights.nonfinite_skipped;
  return result;
}

}  // namespace geodp
