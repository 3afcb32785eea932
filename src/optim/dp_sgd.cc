#include "optim/dp_sgd.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "base/thread_pool.h"
#include "nn/parameter.h"
#include "obs/trace.h"
#include "stats/metrics.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

// Per-sample gradients are staged in blocks of this many samples: the
// backward passes fill a block serially (modules cache activations, so
// the model itself is not thread-safe), then the block's clip-and-
// accumulate — the dominant per-sample cost — runs in parallel across
// the pool. The block size also bounds staging memory to
// kPipelineBlock * flat_dim floats. Block boundaries are a compile-time
// constant, so the reduction order (and hence the result bits) does not
// depend on the thread count.
constexpr size_t kPipelineBlock = 64;

}  // namespace

PrivateBatchGradient ComputePerSampleGradients(
    Sequential& model, SoftmaxCrossEntropy& loss,
    const InMemoryDataset& dataset, const std::vector<int64_t>& indices,
    const Clipper& clipper, bool for_step_record) {
  GEODP_CHECK(!indices.empty());
  const std::vector<Parameter*> params = model.Parameters();
  const int64_t flat_dim = TotalParameterCount(params);

  PrivateBatchGradient result;
  result.batch_size = static_cast<int64_t>(indices.size());
  result.averaged_clipped = Tensor({flat_dim});
  if (for_step_record) result.averaged_raw = Tensor({flat_dim});
  result.sample_losses.reserve(indices.size());
  if (for_step_record)
    result.sample_grad_norms.reserve(indices.size());  // geodp: per-sample

  // The loop allocates no per-sample staging: each image is copied into
  // one reused [1, ...image shape] input, and each gradient is flattened
  // into a block slot recycled across pipeline blocks. Slots [0, filled) hold
  // the block's finite samples; a non-finite sample's slot is overwritten
  // by the next sample.
  const Tensor& first_image = dataset.image(indices.front());
  std::vector<int64_t> input_shape = first_image.shape();
  input_shape.insert(input_shape.begin(), 1);
  Tensor x(input_shape);
  std::vector<int64_t> y(1);
  std::vector<Tensor> block;
  block.reserve(std::min(kPipelineBlock, indices.size()));
  std::vector<double> block_norms;  // geodp: per-sample norms for the clip
  block_norms.reserve(block.capacity());
  int64_t finite_samples = 0;
  size_t pos = 0;
  while (pos < indices.size()) {
    const size_t block_end =
        std::min(pos + kPipelineBlock, indices.size());
    size_t filled = 0;
    {
      const TraceSpan span("step.forward_backward");
      for (; pos < block_end; ++pos) {
        const int64_t index = indices[pos];
        ZeroGradients(params);
        const Tensor& image = dataset.image(index);
        std::copy_n(image.data(), image.numel(), x.data());
        y[0] = dataset.label(index);
        const double sample_loss = loss.Forward(model.Forward(x), y);
        model.BackwardParameters(loss.Backward(), nullptr);
        if (filled == block.size()) block.emplace_back(Tensor({flat_dim}));
        Tensor& grad = block[filled];
        float* flat = grad.data();
        for (const Parameter* p : params) {
          flat = std::copy_n(p->grad.data(), p->grad.numel(), flat);
        }
        // Any non-finite gradient element makes the L2 norm non-finite,
        // so one norm (a pass the clipper needs anyway, orders of
        // magnitude cheaper than the backward pass) detects NaN/Inf
        // poisoning. Such samples are dropped from the averages; the
        // model stays finite and training degrades gracefully instead of
        // diverging.
        const double norm = grad.L2Norm();
        const bool finite =
            std::isfinite(sample_loss) && std::isfinite(norm);
        if (finite) {
          ++filled;
          block_norms.push_back(norm);  // geodp: per-sample
          result.mean_loss += sample_loss;
          ++finite_samples;
        } else {
          ++result.nonfinite_skipped;
        }
        if (for_step_record)
          result.sample_grad_norms.push_back(norm);  // geodp: per-sample
        result.sample_losses.push_back(sample_loss);
      }
    }
    // Slots past the finite samples (a partial last block, or a dropped
    // sample's slot) leave the block; the next block reallocates them.
    block.resize(filled);
    const TraceSpan span("step.clip_accumulate");
    AccumulateClipped(block, clipper, result.averaged_clipped,
                      &block_norms);  // geodp: per-sample
    if (for_step_record) AccumulateSum(block, result.averaged_raw);
    block_norms.clear();  // geodp: per-sample
  }
  ZeroGradients(params);

  const float inv_b = 1.0f / static_cast<float>(result.batch_size);
  result.averaged_clipped.ScaleInPlace(inv_b);
  result.averaged_raw.ScaleInPlace(inv_b);
  result.mean_loss = finite_samples > 0
                         ? result.mean_loss /
                               static_cast<double>(finite_samples)
                         : 0.0;
  return result;
}

double EvaluateMeanLoss(Sequential& model, const InMemoryDataset& dataset,
                        int64_t max_examples, int64_t batch_size) {
  GEODP_CHECK_GT(dataset.size(), 0);
  GEODP_CHECK_GT(batch_size, 0);
  const int64_t limit = (max_examples > 0)
                            ? std::min(max_examples, dataset.size())
                            : dataset.size();
  SoftmaxCrossEntropy loss;
  double total = 0.0;
  int64_t done = 0;
  while (done < limit) {
    const int64_t count = std::min(batch_size, limit - done);
    std::vector<int64_t> indices(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) indices[static_cast<size_t>(i)] = done + i;
    const Tensor x = dataset.StackImages(indices);
    const std::vector<int64_t> y = dataset.GatherLabels(indices);
    total += loss.Forward(model.Forward(x), y) * static_cast<double>(count);
    done += count;
  }
  return total / static_cast<double>(limit);
}

double EvaluateAccuracy(Sequential& model, const InMemoryDataset& dataset,
                        int64_t batch_size) {
  GEODP_CHECK_GT(dataset.size(), 0);
  GEODP_CHECK_GT(batch_size, 0);
  double correct_weighted = 0.0;
  int64_t done = 0;
  while (done < dataset.size()) {
    const int64_t count = std::min(batch_size, dataset.size() - done);
    std::vector<int64_t> indices(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) indices[static_cast<size_t>(i)] = done + i;
    const Tensor logits = model.Forward(dataset.StackImages(indices));
    const std::vector<int64_t> y = dataset.GatherLabels(indices);
    correct_weighted +=
        AccuracyFromLogits(logits, y) * static_cast<double>(count);
    done += count;
  }
  return correct_weighted / static_cast<double>(dataset.size());
}

}  // namespace geodp
