#include "support/oracles.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

double GaussianSigmaForEpsilonDelta(double epsilon, double delta) {
  GEODP_CHECK_GT(epsilon, 0.0);
  GEODP_CHECK(delta > 0.0 && delta < 1.0);
  return std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

bool LooksGaussian(const NormalityReport& report, double tolerance) {
  return std::fabs(report.skewness) < tolerance &&
         std::fabs(report.excess_kurtosis) < tolerance;
}

int64_t CounterValue(const MetricsRegistry& registry,
                     const std::string& name) {
  const RegistrySnapshot snapshot = registry.Snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double GaugeValue(const MetricsRegistry& registry, const std::string& name) {
  const RegistrySnapshot snapshot = registry.Snapshot();
  const auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0.0 : it->second;
}

HistogramSnapshot HistogramValue(const MetricsRegistry& registry,
                                 const std::string& name) {
  const RegistrySnapshot snapshot = registry.Snapshot();
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? HistogramSnapshot{} : it->second;
}

}  // namespace geodp
