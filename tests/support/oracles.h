// Small reference formulas and readers that only tests call: the classic
// Gaussian-mechanism calibration, a moment-based normality predicate, and
// lookups of one metric in a registry snapshot.

#ifndef GEODP_TESTS_SUPPORT_ORACLES_H_
#define GEODP_TESTS_SUPPORT_ORACLES_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "stats/normality.h"

namespace geodp {

/// Noise multiplier sigma such that adding N(0, (sigma * sensitivity)^2)
/// noise satisfies (epsilon, delta)-DP for epsilon <= 1, by the classic
/// bound sigma = sqrt(2 ln(1.25/delta)) / epsilon.
double GaussianSigmaForEpsilonDelta(double epsilon, double delta);

/// True if |skewness| and |excess kurtosis| are both below `tolerance` (a
/// pragmatic normality check, not a formal hypothesis test).
bool LooksGaussian(const NormalityReport& report, double tolerance = 0.5);

/// The current value of one metric; 0 (or an empty histogram) when the
/// registry has none by that name.
int64_t CounterValue(const MetricsRegistry& registry, const std::string& name);
double GaugeValue(const MetricsRegistry& registry, const std::string& name);
HistogramSnapshot HistogramValue(const MetricsRegistry& registry,
                                 const std::string& name);

}  // namespace geodp

#endif  // GEODP_TESTS_SUPPORT_ORACLES_H_
