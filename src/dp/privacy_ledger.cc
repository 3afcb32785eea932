#include "dp/privacy_ledger.h"

#include <sstream>

#include "base/check.h"
#include "dp/rdp_accountant.h"

namespace geodp {

void PrivacyLedger::RecordGaussian(NoiseMultiplier sigma, int64_t count,
                                   std::string note) {
  GEODP_CHECK_GT(sigma.value(), 0.0);  // geodp: check-ok
  GEODP_CHECK_GT(count, 0);  // geodp: check-ok
  PrivacyEvent event;
  event.kind = PrivacyEvent::Kind::kGaussian;
  event.noise_multiplier = sigma.value();
  event.count = count;
  event.note = std::move(note);
  events_.push_back(std::move(event));
}

void PrivacyLedger::RecordSubsampledGaussian(NoiseMultiplier sigma,
                                             SamplingRate sampling_rate,
                                             int64_t count,
                                             std::string note) {
  const double rate = sampling_rate.value();
  GEODP_CHECK_GT(sigma.value(), 0.0);  // geodp: check-ok
  GEODP_CHECK(rate > 0.0 && rate <= 1.0);  // geodp: check-ok
  GEODP_CHECK_GT(count, 0);  // geodp: check-ok
  PrivacyEvent event;
  event.kind = PrivacyEvent::Kind::kSubsampledGaussian;
  event.noise_multiplier = sigma.value();
  event.sampling_rate = rate;
  event.count = count;
  event.note = std::move(note);
  events_.push_back(std::move(event));
}

void PrivacyLedger::RecordLaplace(Epsilon epsilon, int64_t count,
                                  std::string note) {
  GEODP_CHECK_GT(epsilon.value(), 0.0);  // geodp: check-ok
  GEODP_CHECK_GT(count, 0);  // geodp: check-ok
  PrivacyEvent event;
  event.kind = PrivacyEvent::Kind::kLaplace;
  event.epsilon = epsilon.value();
  event.count = count;
  event.note = std::move(note);
  events_.push_back(std::move(event));
}

void PrivacyLedger::RecordSubsampledGaussianCoalesced(
    NoiseMultiplier sigma, SamplingRate sampling_rate, std::string note) {
  if (!events_.empty()) {
    PrivacyEvent& last = events_.back();
    if (last.kind == PrivacyEvent::Kind::kSubsampledGaussian &&
        last.noise_multiplier == sigma.value() &&
        last.sampling_rate == sampling_rate.value() && last.note == note) {
      ++last.count;
      return;
    }
  }
  RecordSubsampledGaussian(sigma, sampling_rate, 1, std::move(note));
}

void PrivacyLedger::RestoreEvents(std::vector<PrivacyEvent> events) {
  events_ = std::move(events);
}

int64_t PrivacyLedger::TotalReleases() const {
  int64_t total = 0;
  for (const PrivacyEvent& event : events_) total += event.count;
  return total;
}

namespace {

// The composed guarantee and its RDP order (0 without Gaussian events),
// from one replay of the events into a fresh accountant. Laplace events
// compose by plain epsilon addition, not RDP.
struct Composition {
  PrivacyGuarantee guarantee;
  int64_t optimal_order = 0;
};

Composition Compose(const std::vector<PrivacyEvent>& events, Delta delta) {
  const double d = delta.value();
  GEODP_CHECK(d > 0.0 && d < 1.0);  // geodp: check-ok
  RdpAccountant accountant;
  bool has_gaussian = false;
  double laplace_epsilon = 0.0;
  for (const PrivacyEvent& event : events) {
    switch (event.kind) {
      case PrivacyEvent::Kind::kGaussian:
        accountant.AddGaussianSteps(NoiseMultiplier(event.noise_multiplier),
                                    event.count);
        has_gaussian = true;
        break;
      case PrivacyEvent::Kind::kSubsampledGaussian:
        accountant.AddSubsampledGaussianSteps(
            NoiseMultiplier(event.noise_multiplier),
            SamplingRate(event.sampling_rate), event.count);
        has_gaussian = true;
        break;
      case PrivacyEvent::Kind::kLaplace:
        laplace_epsilon += event.epsilon * static_cast<double>(event.count);
        break;
    }
  }
  if (!has_gaussian) return {{laplace_epsilon, 0.0}, 0};
  return {{accountant.GetEpsilon(delta) + laplace_epsilon, d},
          accountant.GetOptimalOrder(delta)};
}

}  // namespace

PrivacyGuarantee PrivacyLedger::ComposedGuarantee(Delta delta) const {
  return Compose(events_, delta).guarantee;
}

int64_t PrivacyLedger::OptimalOrder(Delta delta) const {
  return Compose(events_, delta).optimal_order;
}

std::string PrivacyLedger::Report(Delta delta) const {
  std::ostringstream out;
  out << "privacy ledger (" << events_.size() << " entries, "
      << TotalReleases() << " releases)\n";
  for (const PrivacyEvent& event : events_) {
    out << "  - ";
    switch (event.kind) {
      case PrivacyEvent::Kind::kGaussian:
        out << "gaussian sigma=" << event.noise_multiplier;
        break;
      case PrivacyEvent::Kind::kSubsampledGaussian:
        out << "subsampled-gaussian sigma=" << event.noise_multiplier
            << " q=" << event.sampling_rate;
        break;
      case PrivacyEvent::Kind::kLaplace:
        out << "laplace eps=" << event.epsilon;
        break;
    }
    out << " x" << event.count;
    if (!event.note.empty()) out << "  (" << event.note << ")";
    out << "\n";
  }
  const auto [guarantee, order] = Compose(events_, delta);
  // A pure-Laplace ledger composes to (eps, 0)-DP; still echo the delta
  // the caller asked about so the report is unambiguous.
  out << "  => (" << guarantee.epsilon << ", " << guarantee.delta
      << ")-DP at requested delta=" << delta.value();
  if (order > 0) out << "\n  => optimal RDP order: " << order;
  return out.str();
}

}  // namespace geodp
