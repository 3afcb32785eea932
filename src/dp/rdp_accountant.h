// Rényi differential privacy accountant for (subsampled) Gaussian
// mechanisms, following Mironov (CSF 2017) and the integer-order subsampled
// bound of Mironov, Talwar & Zhang / Wang et al. used by practical DP-SGD
// implementations. The paper (§II-A) relies on RDP to "more accurately
// estimate the cumulative privacy loss of the whole training process".

#ifndef GEODP_DP_RDP_ACCOUNTANT_H_
#define GEODP_DP_RDP_ACCOUNTANT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "base/status.h"
#include "base/units.h"

namespace geodp {

/// RDP of the (un-subsampled) Gaussian mechanism with noise multiplier
/// sigma at order alpha: alpha / (2 sigma^2).
double GaussianRdp(double noise_multiplier, double alpha);

/// RDP of the Poisson-subsampled Gaussian mechanism at integer order
/// alpha >= 2 with sampling rate q in [0, 1]:
///   (1/(alpha-1)) * log( sum_{i=0}^{alpha} C(alpha,i) q^i (1-q)^{alpha-i}
///                        * exp( i(i-1) / (2 sigma^2) ) )
/// computed in log-space for stability.
double SubsampledGaussianRdp(double noise_multiplier, double sampling_rate,
                             int64_t alpha);

/// Point-in-time view of an accountant: the telemetry layer emits one per
/// training step so epsilon-so-far is visible while a run is in flight.
struct RdpSnapshot {
  double epsilon = 0.0;      // 0 before any release is accounted
  int64_t optimal_order = 0; // order achieving epsilon (0 before any spend)
  int64_t total_steps = 0;   // releases accounted so far
};

/// Tracks cumulative RDP over a set of integer orders and converts to
/// (epsilon, delta)-DP via epsilon = min_alpha rdp(alpha) +
/// log(1/delta)/(alpha-1).
///
/// The per-order curve of each (sigma, q) is evaluated once and kept, so
/// accounting a step of a mechanism seen before costs O(orders) instead of
/// a binomial series per order. The cumulative values are the same bits
/// as evaluating the series on every call.
class RdpAccountant {
 public:
  /// Uses DefaultOrders() when `orders` is empty.
  explicit RdpAccountant(std::vector<int64_t> orders = {});

  /// Integer orders 2..64 plus {128, 256, 512, 1024}.
  static std::vector<int64_t> DefaultOrders();

  /// Accounts `steps` releases of a Gaussian mechanism: the subsampled
  /// mechanism at rate 1. Sigma, the rate and delta below are strongly
  /// typed (base/units.h): they are all small positive doubles, and
  /// transposing two of them misreports epsilon without any other symptom.
  void AddGaussianSteps(NoiseMultiplier sigma, int64_t steps);

  /// Accounts `steps` releases of a Poisson-subsampled Gaussian mechanism
  /// with the given sampling rate (batch_size / dataset_size).
  void AddSubsampledGaussianSteps(NoiseMultiplier sigma,
                                  SamplingRate sampling_rate, int64_t steps);

  /// Smallest epsilon over the tracked orders at the given delta.
  double GetEpsilon(Delta delta) const;

  /// The order achieving GetEpsilon().
  int64_t GetOptimalOrder(Delta delta) const;

  /// Epsilon, optimal order, and release count in one call. Unlike
  /// GetEpsilon, an accountant with no releases reports epsilon 0 (and
  /// order 0) instead of the vacuous log(1/delta)/(alpha-1) bound.
  RdpSnapshot Snapshot(Delta delta) const;

  /// Releases accounted so far across both Add methods.
  int64_t total_steps() const { return total_steps_; }

  /// Checkpoint support: restores a snapshot taken from `orders()`,
  /// `cumulative_rdp()` and `total_steps()`. Fails (without mutating the
  /// accountant) when the saved orders do not match this accountant's or
  /// the values are malformed — resuming onto a mismatched accountant
  /// would silently misreport epsilon.
  Status RestoreState(const std::vector<int64_t>& orders,
                      const std::vector<double>& cumulative_rdp,
                      int64_t total_steps);

  const std::vector<int64_t>& orders() const { return orders_; }
  const std::vector<double>& cumulative_rdp() const { return rdp_; }

 private:
  // Per-step RDP of one (sigma, q) at every order, keyed by the exact
  // doubles. An empty `rdp` marks an unused slot.
  struct Curve {
    double sigma = 0.0;
    double rate = 0.0;
    std::vector<double> rdp;  // parallel to orders_
  };
  // Enough for every mechanism one step releases, so they never evict
  // each other.
  static constexpr size_t kCachedCurves = 4;

  // The cached curve for (sigma, q), evaluated on a miss into the oldest
  // slot.
  const std::vector<double>& CurveFor(double sigma, double rate);

  // Epsilon and its order at `delta`, minimised over the tracked orders.
  RdpSnapshot Scan(Delta delta) const;

  std::vector<int64_t> orders_;
  std::vector<double> rdp_;  // cumulative, parallel to orders_
  int64_t total_steps_ = 0;
  std::array<Curve, kCachedCurves> curves_;
  size_t next_slot_ = 0;  // the slot the next miss overwrites
};

}  // namespace geodp

#endif  // GEODP_DP_RDP_ACCOUNTANT_H_
