#include "optim/dp_sgd.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/check.h"
#include "base/simd/kernels.h"
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
  // into a block slot recycled across pipeline blocks.
  const Tensor& first_image = dataset.image(indices.front());
  std::vector<int64_t> input_shape = first_image.shape();
  input_shape.insert(input_shape.begin(), 1);
  Tensor x(input_shape);
  std::vector<int64_t> y(1);
  const size_t block_capacity = std::min(kPipelineBlock, indices.size());
  std::vector<Tensor> block;
  block.reserve(block_capacity);
  std::vector<double> block_losses(block_capacity);
  std::vector<double> block_norms;  // geodp: per-sample norms for the clip
  int64_t finite_samples = 0;
  for (size_t pos = 0; pos < indices.size(); pos += kPipelineBlock) {
    const size_t count = std::min(kPipelineBlock, indices.size() - pos);
    block_norms.resize(count);  // geodp: per-sample
    size_t filled = 0;
    {
      const TraceSpan span("step.forward_backward");
      for (size_t slot = 0; slot < count; ++slot) {
        const int64_t index = indices[pos + slot];
        ZeroGradients(params);
        const Tensor& image = dataset.image(index);
        std::copy_n(image.data(), image.numel(), x.data());
        y[0] = dataset.label(index);
        block_losses[slot] = loss.Forward(model.Forward(x), y);
        model.Backward(loss.Backward(), nullptr, /*input_grad=*/false);
        if (slot == block.size()) block.emplace_back(Tensor({flat_dim}));
        float* flat = block[slot].data();
        for (const Parameter* p : params) {
          flat = std::copy_n(p->grad.data(), p->grad.numel(), flat);
        }
      }
      // Any non-finite gradient element makes the L2 norm non-finite, so
      // the norms (a pass the clipper needs anyway) detect NaN/Inf
      // poisoning. They run four samples at a time: four independent
      // chains, each with the bits of Tensor::L2Norm. A short last group
      // repeats the block's last sample and ignores the extra norms.
      for (size_t slot = 0; slot < count; slot += 4) {
        std::array<const float*, 4> group;
        for (size_t s = 0; s < 4; ++s) {
          group[s] = block[std::min(slot + s, count - 1)].data();
        }
        const std::array<double, 4> sum_sq =
            simd::SumSquares4(group, flat_dim);
        for (size_t s = 0; s < 4 && slot + s < count; ++s) {
          block_norms[slot + s] = std::sqrt(sum_sq[s]);  // geodp: per-sample
        }
      }
      // Non-finite samples are dropped from the averages; the model stays
      // finite and training degrades gracefully instead of diverging. The
      // finite ones move to the front of the block in batch order.
      for (size_t slot = 0; slot < count; ++slot) {
        const double norm = block_norms[slot];  // geodp: per-sample
        const double sample_loss = block_losses[slot];
        if (std::isfinite(sample_loss) && std::isfinite(norm)) {
          std::swap(block[filled], block[slot]);
          block_norms[filled] = norm;  // geodp: per-sample
          ++filled;
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
    // Slots past the finite samples (a partial last block, or dropped
    // samples) leave the block; the next block reallocates them.
    block.resize(filled);
    block_norms.resize(filled);  // geodp: per-sample
    const TraceSpan span("step.clip_accumulate");
    AccumulateClipped(block, clipper, result.averaged_clipped,
                      &block_norms);  // geodp: per-sample
    if (for_step_record) AccumulateSum(block, result.averaged_raw);
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
    const std::vector<int64_t> y = dataset.GatherLabels(indices);
    total += loss.Forward(model.Forward(dataset.StackImages(indices)), y) *
             static_cast<double>(count);
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
