// Thread-safe metrics registry: named counters, gauges, and fixed-bucket
// histograms. Components record into the process-wide registry
// (MetricsRegistry::Global()); snapshots list the metrics in name order,
// and the exposition formats every number with a shortest round-trip
// representation, so two runs that produce bit-identical values produce
// byte-identical output.

#ifndef GEODP_OBS_METRICS_H_
#define GEODP_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace geodp {

/// Formats a double with the shortest decimal representation that parses
/// back to the same bits ("%.15g" widened to "%.17g" as needed). Used by
/// every JSON emitter in the observability layer so output is a pure
/// function of the value.
std::string FormatDouble(double value);

/// Snapshot of one histogram: cumulative-free bucket counts plus the
/// running count/sum for mean recovery and interpolated quantiles.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;  // bucket b covers (bound[b-1], bound[b]]
  std::vector<int64_t> counts;       // size upper_bounds.size() + 1 (overflow)
  int64_t count = 0;
  double sum = 0.0;
  // HistogramQuantile(*this, q) for q = 0.5 / 0.95 / 0.99, filled at
  // snapshot time for the /metrics exposition.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Interpolated quantile of a bucketed histogram, Prometheus
/// histogram_quantile semantics: the target rank q*count is located in the
/// cumulative bucket counts and linearly interpolated inside the bucket
/// (the first bucket's lower edge is 0 unless its bound is negative; ranks
/// past the last finite bound clamp to it). A pure function of the
/// snapshot, so two snapshots with identical counts give identical bytes.
/// Returns 0 for an empty histogram; `q` outside [0, 1] is clamped.
double HistogramQuantile(const HistogramSnapshot& snapshot, double q);

/// Point-in-time copy of every metric in a registry. std::map keys make
/// iteration order (and thus every serialization) deterministic.
struct RegistrySnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Named counters / gauges / histograms behind one mutex. All methods are
/// safe to call concurrently; histogram bucket bounds are fixed at first
/// observation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to a (creating-on-first-use) monotone counter.
  void IncrementCounter(const std::string& name, int64_t delta = 1);

  /// Sets a last-value-wins gauge.
  void SetGauge(const std::string& name, double value);

  /// Records `value` into the histogram `name`. The first observation
  /// fixes the (sorted, strictly increasing) bucket upper bounds; later
  /// observations ignore `upper_bounds`. Values above the last bound land
  /// in the overflow bucket.
  void ObserveHistogram(const std::string& name,
                        const std::vector<double>& upper_bounds, double value);

  /// Copies every metric out under the lock. The introspection server
  /// formats from snapshots so exposition never holds the registry mutex
  /// while rendering.
  RegistrySnapshot Snapshot() const;

  /// Drops every metric (tests and between-experiment hygiene).
  void Reset();

  /// Process-wide registry shared by the trainer and the CLI.
  static MetricsRegistry& Global();

 private:
  struct Histogram {
    std::vector<double> upper_bounds;
    std::vector<int64_t> counts;
    int64_t count = 0;
    double sum = 0.0;
  };

  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace geodp

#endif  // GEODP_OBS_METRICS_H_
