#include "clip/clipping.h"

#include <cmath>
#include <utility>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "base/thread_pool.h"

namespace geodp {
namespace {

// Samples per ParallelFor chunk in AccumulateClipped. The chunk structure
// (not the thread count) fixes the floating-point reduction order.
constexpr int64_t kClipGrain = 4;

}  // namespace

void Clipper::OnStep(int64_t /*step*/) {}

FlatClipper::FlatClipper(double clip_threshold)
    : clip_threshold_(clip_threshold) {
  GEODP_CHECK_GT(clip_threshold_, 0.0);  // geodp: check-ok
}

double FlatClipper::ClipScale(double norm) const {
  const double divisor = std::max(1.0, norm / clip_threshold_);
  return 1.0 / divisor;
}

AutoSClipper::AutoSClipper(double clip_threshold, double gamma)
    : clip_threshold_(clip_threshold), gamma_(gamma) {
  GEODP_CHECK_GT(clip_threshold_, 0.0);  // geodp: check-ok
  GEODP_CHECK_GT(gamma_, 0.0);  // geodp: check-ok
}

double AutoSClipper::ClipScale(double norm) const {
  return clip_threshold_ / (norm + gamma_);
}

PsacClipper::PsacClipper(double clip_threshold, double r0, double decay,
                         double gamma)
    : clip_threshold_(clip_threshold),
      r0_(r0),
      decay_(decay),
      gamma_(gamma),
      radius_(r0) {
  GEODP_CHECK_GT(clip_threshold_, 0.0);  // geodp: check-ok
  GEODP_CHECK_GE(r0_, 0.0);  // geodp: check-ok
  GEODP_CHECK(decay_ > 0.0 && decay_ <= 1.0);  // geodp: check-ok
  GEODP_CHECK_GT(gamma_, 0.0);  // geodp: check-ok
}

double PsacClipper::ClipScale(double norm) const {
  return clip_threshold_ / (norm + radius_ / (norm + gamma_));
}

void PsacClipper::OnStep(int64_t step) {
  GEODP_CHECK_GE(step, 0);  // geodp: check-ok
  radius_ = r0_ * std::pow(decay_, static_cast<double>(step));
}

bool IsKnownClipper(const std::string& name) {
  return name == "flat" || name == "AUTO-S" || name == "PSAC";
}

std::unique_ptr<Clipper> MakeClipper(const std::string& name,
                                     ClipThreshold clip_threshold) {
  const double threshold = clip_threshold.value();
  if (name == "flat") return std::make_unique<FlatClipper>(threshold);
  if (name == "AUTO-S") return std::make_unique<AutoSClipper>(threshold);
  if (name == "PSAC") return std::make_unique<PsacClipper>(threshold);
  // Unreachable for validated config: callers gate on IsKnownClipper.
  GEODP_CHECK(false) << "unknown clipper: " << name;  // geodp: check-ok
  return nullptr;
}

void AccumulateClipped(const std::vector<Tensor>& per_sample_gradients,
                       const Clipper& clipper, Tensor& sum,
                       const std::vector<double>* norms) {
  if (per_sample_gradients.empty()) return;
  const int64_t count = static_cast<int64_t>(per_sample_gradients.size());
  GEODP_CHECK(norms == nullptr ||  // geodp: check-ok
              static_cast<int64_t>(norms->size()) == count);
  const auto scale = [&](int64_t i) {
    const size_t at = static_cast<size_t>(i);
    const double norm =
        norms ? (*norms)[at] : per_sample_gradients[at].L2Norm();
    return static_cast<float>(clipper.ClipScale(norm));
  };
  const int64_t num_chunks = (count + kClipGrain - 1) / kClipGrain;
  std::vector<Tensor> partials(static_cast<size_t>(num_chunks));
  // Fused clip-accumulate: instead of materializing each clipped gradient
  // and adding it (one full write + read per sample), the kernels scale
  // and accumulate in a single pass. The rounding sequence per element is
  // identical to the historical Clip-then-AddInPlace on the scalar tier.
  ParallelForChunks(
      0, count, kClipGrain, [&](int64_t chunk, int64_t lo, int64_t hi) {
        const Tensor& first = per_sample_gradients[static_cast<size_t>(lo)];
        Tensor partial(first.shape());
        simd::ClipScaleAssign(partial.data(), first.data(), scale(lo),
                              first.numel());
        for (int64_t i = lo + 1; i < hi; ++i) {
          const Tensor& g = per_sample_gradients[static_cast<size_t>(i)];
          GEODP_CHECK(SameShape(partial, g));  // geodp: check-ok
          simd::ClipAxpy(partial.data(), g.data(), scale(i), g.numel());
        }
        partials[static_cast<size_t>(chunk)] = std::move(partial);
      });
  for (const Tensor& partial : partials) sum.AddInPlace(partial);
}

Tensor ClipAndSum(const std::vector<Tensor>& per_sample_gradients,
                  const Clipper& clipper) {
  // Empty Poisson lots are a normal, counted occurrence: the defined
  // result is an empty tensor (a zero gradient over zero samples), the
  // same "nothing to add" contract as AccumulateClipped's early return.
  if (per_sample_gradients.empty()) return Tensor();
  Tensor sum(per_sample_gradients.front().shape());
  AccumulateClipped(per_sample_gradients, clipper, sum);
  return sum;
}

}  // namespace geodp
