// Ghost-clipped private gradient computation: the O(batch + params)
// alternative to ComputePerSampleGradients. One batched forward, one
// batched backward that has each parameterized layer derive every
// sample's squared gradient norm from its cached activations and the
// incoming backprop (Goodfellow's trick for Linear, the im2col analog
// for Conv2d) and ends at the first parameterized layer, then a weighted
// accumulation pass for the clipped sum (plus one for the raw sum when a
// step record needs it) that never materializes a per-sample gradient.
// Produces the same PrivateBatchGradient contract as the materialized
// path (equal clipped and raw averages up to per-tier floating-point
// tolerance).

#ifndef GEODP_OPTIM_GHOST_GRAD_H_
#define GEODP_OPTIM_GHOST_GRAD_H_

#include <cstdint>
#include <vector>

#include "clip/clipping.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "optim/dp_sgd.h"

namespace geodp {

/// Ghost-clipped drop-in for ComputePerSampleGradients: same inputs,
/// same PrivateBatchGradient semantics (averages divided by the full
/// batch size, non-finite samples contributing exactly zero,
/// sample_losses batch-aligned with raw values), but computed without
/// ever materializing a per-sample gradient. `for_step_record` fills
/// averaged_raw and sample_grad_norms, as for ComputePerSampleGradients.
/// Leaves the accumulated parameter gradients zeroed.
PrivateBatchGradient ComputeGhostClippedGradients(
    Sequential& model, SoftmaxCrossEntropy& loss,
    const InMemoryDataset& dataset, const std::vector<int64_t>& indices,
    const Clipper& clipper, bool for_step_record = false);

}  // namespace geodp

#endif  // GEODP_OPTIM_GHOST_GRAD_H_
