// Per-sample gradient clipping strategies.
//
// DP-SGD bounds each sample's contribution (the L2 sensitivity of the batch
// sum) by clipping every per-sample gradient to norm at most C before
// averaging. Besides the paper's flat clipping (Eq. 6) we implement the two
// state-of-the-art adaptive schemes the evaluation composes with GeoDP:
// AUTO-S automatic clipping (Bu et al., NeurIPS 2023) and PSAC per-sample
// adaptive clipping (Xia et al., AAAI 2023). All strategies keep the
// per-sample norm <= C, so the noise calibration is unchanged.

#ifndef GEODP_CLIP_CLIPPING_H_
#define GEODP_CLIP_CLIPPING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/units.h"
#include "tensor/tensor.h"

namespace geodp {

/// Interface: maps a per-sample gradient to its clipped form with
/// L2 norm <= clip_threshold(). Every shipped strategy is a pure rescale
/// g~ = s(||g||) * g, so subclasses implement only the scale function and
/// the accumulation path can fuse scale-and-add into one kernel pass.
class Clipper {
 public:
  virtual ~Clipper() = default;

  /// The multiplicative clip factor for a gradient of L2 norm `norm`.
  /// Must satisfy s(norm) * norm <= clip_threshold().
  virtual double ClipScale(double norm) const = 0;

  /// Called once per optimizer step; adaptive schemes update internal
  /// schedules here. Default is a no-op.
  virtual void OnStep(int64_t step);

  /// Sensitivity bound C on ||ClipScale(||g||) * g||.
  virtual double clip_threshold() const = 0;

  virtual std::string name() const = 0;
};

/// Flat clipping (Abadi et al. / paper Eq. 6):
///   g~ = g / max(1, ||g|| / C).
class FlatClipper : public Clipper {
 public:
  explicit FlatClipper(double clip_threshold);

  double ClipScale(double norm) const override;
  double clip_threshold() const override { return clip_threshold_; }
  std::string name() const override { return "flat"; }

 private:
  double clip_threshold_;
};

/// AUTO-S automatic clipping (Bu et al.):
///   g~ = C * g / (||g|| + gamma),
/// which normalizes every gradient to (just under) norm C and keeps a
/// small stability constant gamma so tiny gradients are not blown up.
class AutoSClipper : public Clipper {
 public:
  AutoSClipper(double clip_threshold, double gamma = 0.01);

  double ClipScale(double norm) const override;
  double clip_threshold() const override { return clip_threshold_; }
  std::string name() const override { return "AUTO-S"; }

 private:
  double clip_threshold_;
  double gamma_;
};

/// PSAC per-sample adaptive clipping (after Xia et al.): a non-monotonic
/// weight that damps very large gradients harder while preserving more of
/// the small ones:
///   g~ = C * g / (||g|| + r_t / (||g|| + gamma)),
/// with r_t decaying geometrically over steps. Norm is still < C. This is a
/// faithful-in-spirit reimplementation (see DESIGN.md substitutions).
class PsacClipper : public Clipper {
 public:
  PsacClipper(double clip_threshold, double r0 = 1.0, double decay = 0.999,
              double gamma = 0.01);

  double ClipScale(double norm) const override;
  void OnStep(int64_t step) override;
  double clip_threshold() const override { return clip_threshold_; }
  std::string name() const override { return "PSAC"; }

  /// Current adaptive radius r_t (exposed for tests).
  double current_radius() const { return radius_; }

 private:
  double clip_threshold_;
  double r0_;
  double decay_;
  double gamma_;
  double radius_;
};

/// True when `name` names a shipped clipping strategy ("flat", "AUTO-S",
/// "PSAC"). Config validation should consult this so MakeClipper only ever
/// sees known names.
bool IsKnownClipper(const std::string& name);

/// Factory by name: "flat", "AUTO-S", "PSAC". `name` must satisfy
/// IsKnownClipper (validated config); the threshold is strongly typed so a
/// noise multiplier cannot be transposed into the sensitivity bound.
std::unique_ptr<Clipper> MakeClipper(const std::string& name,
                                     ClipThreshold clip_threshold);

/// Clips every per-sample gradient with `clipper` and adds the clipped
/// gradients into `sum` (shapes must match). The dominant per-sample cost
/// of DP-SGD, parallelized across the batch on the global pool: each
/// ParallelFor chunk accumulates into its own partial sum and the partials
/// are reduced in chunk order, so the result is bit-identical at any
/// thread count. Clipper::ClipScale must be const-thread-safe (all shipped
/// clippers are: OnStep mutates, ClipScale only reads). A caller that already
/// holds each gradient's L2Norm() passes them as `norms` (same order), and
/// they are not computed again.
void AccumulateClipped(const std::vector<Tensor>& per_sample_gradients,
                       const Clipper& clipper, Tensor& sum,
                       const std::vector<double>* norms = nullptr);

/// Sum of the clipped per-sample gradients (parallel, thread-count
/// invariant). An empty batch — a normal occurrence under Poisson
/// sampling — yields an empty (zero-element) tensor, mirroring
/// AccumulateClipped's early return.
Tensor ClipAndSum(const std::vector<Tensor>& per_sample_gradients,
                  const Clipper& clipper);

}  // namespace geodp

#endif  // GEODP_CLIP_CLIPPING_H_
