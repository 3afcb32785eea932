#include "dp/rdp_accountant.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"

namespace geodp {
namespace {

// log(exp(a) + exp(b)) without overflow.
double LogAdd(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

// log of the binomial coefficient C(n, k).
double LogBinomial(int64_t n, int64_t k) {
  return std::lgamma(static_cast<double>(n + 1)) -
         std::lgamma(static_cast<double>(k + 1)) -
         std::lgamma(static_cast<double>(n - k + 1));
}

}  // namespace

double GaussianRdp(double noise_multiplier, double alpha) {
  GEODP_CHECK_GT(noise_multiplier, 0.0);  // geodp: check-ok
  GEODP_CHECK_GT(alpha, 1.0);  // geodp: check-ok
  return alpha / (2.0 * noise_multiplier * noise_multiplier);
}

double SubsampledGaussianRdp(double noise_multiplier, double sampling_rate,
                             int64_t alpha) {
  GEODP_CHECK_GT(noise_multiplier, 0.0);  // geodp: check-ok
  GEODP_CHECK_GE(alpha, 2);  // geodp: check-ok
  GEODP_CHECK(sampling_rate >= 0.0 && sampling_rate <= 1.0);  // geodp: check-ok
  if (sampling_rate == 0.0) return 0.0;
  if (sampling_rate == 1.0) {
    return GaussianRdp(noise_multiplier, static_cast<double>(alpha));
  }
  const double log_q = std::log(sampling_rate);
  const double log_1mq = std::log1p(-sampling_rate);
  const double sigma_sq = noise_multiplier * noise_multiplier;
  double log_a = -std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i <= alpha; ++i) {
    const double term = LogBinomial(alpha, i) +
                        static_cast<double>(i) * log_q +
                        static_cast<double>(alpha - i) * log_1mq +
                        static_cast<double>(i * (i - 1)) / (2.0 * sigma_sq);
    log_a = LogAdd(log_a, term);
  }
  return std::max(0.0, log_a / (static_cast<double>(alpha) - 1.0));
}

RdpAccountant::RdpAccountant(std::vector<int64_t> orders)
    : orders_(orders.empty() ? DefaultOrders() : std::move(orders)) {
  for (int64_t order : orders_) GEODP_CHECK_GE(order, 2);  // geodp: check-ok
  rdp_.assign(orders_.size(), 0.0);
}

std::vector<int64_t> RdpAccountant::DefaultOrders() {
  std::vector<int64_t> orders;
  for (int64_t a = 2; a <= 64; ++a) orders.push_back(a);
  for (int64_t a : {128, 256, 512, 1024}) orders.push_back(a);
  return orders;
}

const std::vector<double>& RdpAccountant::CurveFor(double sigma, double rate) {
  for (const Curve& curve : curves_) {
    if (!curve.rdp.empty() && curve.sigma == sigma && curve.rate == rate) {
      return curve.rdp;
    }
  }
  Curve& slot = curves_[next_slot_];
  next_slot_ = (next_slot_ + 1) % kCachedCurves;
  slot.sigma = sigma;
  slot.rate = rate;
  slot.rdp.resize(orders_.size());
  for (size_t i = 0; i < orders_.size(); ++i) {
    slot.rdp[i] = SubsampledGaussianRdp(sigma, rate, orders_[i]);
  }
  return slot.rdp;
}

void RdpAccountant::AddGaussianSteps(NoiseMultiplier sigma, int64_t steps) {
  AddSubsampledGaussianSteps(sigma, SamplingRate(1.0), steps);
}

void RdpAccountant::AddSubsampledGaussianSteps(NoiseMultiplier sigma,
                                               SamplingRate sampling_rate,
                                               int64_t steps) {
  GEODP_CHECK_GE(steps, 0);  // geodp: check-ok
  const std::vector<double>& curve =
      CurveFor(sigma.value(), sampling_rate.value());
  for (size_t i = 0; i < orders_.size(); ++i) {
    rdp_[i] += static_cast<double>(steps) * curve[i];
  }
  total_steps_ += steps;
}

RdpSnapshot RdpAccountant::Scan(Delta delta) const {
  const double d = delta.value();
  GEODP_CHECK(d > 0.0 && d < 1.0);  // geodp: check-ok
  const double log_inv_delta = std::log(1.0 / d);
  RdpSnapshot best{std::numeric_limits<double>::infinity(), orders_.front(),
                   total_steps_};
  for (size_t i = 0; i < orders_.size(); ++i) {
    const double alpha = static_cast<double>(orders_[i]);
    const double eps = rdp_[i] + log_inv_delta / (alpha - 1.0);
    if (eps < best.epsilon) {
      best.epsilon = eps;
      best.optimal_order = orders_[i];
    }
  }
  return best;
}

double RdpAccountant::GetEpsilon(Delta delta) const {
  return Scan(delta).epsilon;
}

int64_t RdpAccountant::GetOptimalOrder(Delta delta) const {
  return Scan(delta).optimal_order;
}

Status RdpAccountant::RestoreState(const std::vector<int64_t>& orders,
                                   const std::vector<double>& cumulative_rdp,
                                   int64_t total_steps) {
  if (orders != orders_) {
    return Status::FailedPrecondition(
        "accountant order grid mismatch: cannot restore RDP snapshot");
  }
  if (cumulative_rdp.size() != orders_.size()) {
    return Status::InvalidArgument("RDP value count does not match orders");
  }
  if (total_steps < 0) {
    return Status::InvalidArgument("negative accounted step count");
  }
  for (const double value : cumulative_rdp) {
    if (!(value >= 0.0) || !std::isfinite(value)) {
      return Status::InvalidArgument("RDP values must be finite and >= 0");
    }
  }
  rdp_ = cumulative_rdp;
  total_steps_ = total_steps;
  return Status::Ok();
}

RdpSnapshot RdpAccountant::Snapshot(Delta delta) const {
  if (total_steps_ == 0) return {};
  return Scan(delta);
}

}  // namespace geodp
