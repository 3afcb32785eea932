#include "base/rng.h"

#include <cmath>
#include <numbers>

#include "base/check.h"

namespace geodp {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

double Rng::Uniform(double lo, double hi) {
  GEODP_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t bound) {
  if (bound == 0) return 0;  // empty range: avoid the modulo-by-zero below
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  uint64_t r = Next();
  while (r < threshold) r = Next();
  return r % bound;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 is kept away from zero so log() is finite.
  double u1 = Uniform();
  while (u1 <= kLogFloor) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = radius * std::sin(2.0 * std::numbers::pi * u2);
  has_cached_gaussian_ = true;
  return radius * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  GEODP_CHECK_GE(stddev, 0.0);
  return mean + stddev * Gaussian();
}

double Rng::Laplace(double b) {
  GEODP_CHECK_GT(b, 0.0);
  // Inverse CDF: u in (-1/2, 1/2), x = -b * sign(u) * ln(1 - 2|u|).
  const double u = Uniform() - 0.5;
  const double sign = u < 0 ? -1.0 : 1.0;
  double mag = 1.0 - 2.0 * std::fabs(u);
  if (mag <= kLogFloor) mag = kLogFloor;
  return -b * sign * std::log(mag);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD6E8FEB86659FD93ULL); }

void Rng::Jump() {
  // Jump polynomial from the xoshiro256++ reference implementation
  // (Blackman & Vigna, public domain).
  static constexpr uint64_t kJump[] = {0x180EC6D33CFD0ABAULL,
                                       0xD5A61266F0C9392CULL,
                                       0xA9582618E03FC9AAULL,
                                       0x39ABDC4529B1661CULL};
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      Next();
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
  has_cached_gaussian_ = false;
}

RngState Rng::ExportState() const {
  RngState snapshot;
  for (int i = 0; i < 4; ++i) snapshot.state[i] = state_[i];
  snapshot.has_cached_gaussian = has_cached_gaussian_;
  snapshot.cached_gaussian = cached_gaussian_;
  return snapshot;
}

void Rng::ImportState(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.state[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

Rng Rng::Substream(uint64_t root_seed, uint64_t stream_id) {
  // stream_id + 1 keeps stream 0 distinct from the plain Rng(root_seed);
  // the golden-ratio multiplier decorrelates consecutive ids before the
  // SplitMix64 expansion in the constructor finishes the mixing.
  Rng stream(root_seed ^ ((stream_id + 1) * 0x9E3779B97F4A7C15ULL));
  stream.Jump();
  return stream;
}

}  // namespace geodp
