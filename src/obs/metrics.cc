#include "obs/metrics.h"

#include <array>
#include <cstdio>
#include <cstdlib>

#include "base/check.h"

namespace geodp {

std::string FormatDouble(double value) {
  std::array<char, 40> buffer;
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer.data(), buffer.size(), "%.*g", precision, value);
    if (std::strtod(buffer.data(), nullptr) == value) break;
  }
  return buffer.data();
}

void MetricsRegistry::IncrementCounter(const std::string& name,
                                       int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::ObserveHistogram(const std::string& name,
                                       const std::vector<double>& upper_bounds,
                                       double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram& histogram = histograms_[name];
  if (histogram.upper_bounds.empty()) {
    GEODP_CHECK(!upper_bounds.empty()) << "histogram " << name
                                       << " needs at least one bucket bound";
    for (size_t i = 1; i < upper_bounds.size(); ++i) {
      GEODP_CHECK_LT(upper_bounds[i - 1], upper_bounds[i])
          << "histogram bounds must be strictly increasing";
    }
    histogram.upper_bounds = upper_bounds;
    histogram.counts.assign(upper_bounds.size() + 1, 0);
  }
  size_t bucket = histogram.upper_bounds.size();  // overflow by default
  for (size_t i = 0; i < histogram.upper_bounds.size(); ++i) {
    if (value <= histogram.upper_bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++histogram.counts[bucket];
  ++histogram.count;
  histogram.sum += value;
}

double HistogramQuantile(const HistogramSnapshot& snapshot, double q) {
  if (snapshot.count <= 0 || snapshot.upper_bounds.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(snapshot.count);
  const size_t overflow = snapshot.upper_bounds.size();
  int64_t cumulative = 0;
  for (size_t i = 0; i < snapshot.counts.size(); ++i) {
    const int64_t in_bucket = snapshot.counts[i];
    const int64_t previous = cumulative;
    cumulative += in_bucket;
    if (in_bucket == 0 || static_cast<double>(cumulative) < rank) continue;
    // Observations past the last finite bound have no upper edge to
    // interpolate toward; clamp to the largest finite bound.
    if (i == overflow) return snapshot.upper_bounds.back();
    const double upper = snapshot.upper_bounds[i];
    const double lower =
        i == 0 ? (snapshot.upper_bounds[0] > 0.0 ? 0.0 : snapshot.upper_bounds[0])
               : snapshot.upper_bounds[i - 1];
    double fraction =
        (rank - static_cast<double>(previous)) / static_cast<double>(in_bucket);
    if (fraction < 0.0) fraction = 0.0;
    return lower + (upper - lower) * fraction;
  }
  return snapshot.upper_bounds.back();
}

namespace {

void FillQuantiles(HistogramSnapshot& snapshot) {
  snapshot.p50 = HistogramQuantile(snapshot, 0.5);
  snapshot.p95 = HistogramQuantile(snapshot, 0.95);
  snapshot.p99 = HistogramQuantile(snapshot, 0.99);
}

}  // namespace

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snapshot;
  snapshot.counters = counters_;
  snapshot.gauges = gauges_;
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot& out = snapshot.histograms[name];
    out.upper_bounds = histogram.upper_bounds;
    out.counts = histogram.counts;
    out.count = histogram.count;
    out.sum = histogram.sum;
    FillQuantiles(out);
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace geodp
