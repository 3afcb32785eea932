#include "base/timer.h"

namespace geodp {

Timer::Timer() : start_(std::chrono::steady_clock::now()) {}

double Timer::ElapsedSeconds() const {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - start_).count();
}

int64_t Timer::ElapsedMicros() const {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(now - start_)
      .count();
}

int64_t Timer::ProcessMicros() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace geodp
