// Wall-clock timing helper used by the runtime benchmarks (paper Fig. 6).

#ifndef GEODP_BASE_TIMER_H_
#define GEODP_BASE_TIMER_H_

#include <chrono>

namespace geodp {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer();

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const;

  /// Microseconds elapsed since construction, as an
  /// integer (trace-event resolution).
  int64_t ElapsedMicros() const;

  /// Monotonic microseconds since the process-wide epoch (fixed on first
  /// call). Trace timestamps use this so all spans share one time base.
  static int64_t ProcessMicros();

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace geodp

#endif  // GEODP_BASE_TIMER_H_
