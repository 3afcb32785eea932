// Deterministic random number generation for the whole library.
//
// Every randomized component (noise mechanisms, data generators, parameter
// init, shuffling) takes an explicit Rng so experiments and tests are
// reproducible bit-for-bit across platforms. The core generator is
// xoshiro256++ (public-domain algorithm by Blackman & Vigna); Gaussian
// variates come from a Box-Muller transform rather than std::
// distributions, whose output is implementation-defined.

#ifndef GEODP_BASE_RNG_H_
#define GEODP_BASE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace geodp {

/// Uniform draws at or below this are never passed to std::log: the
/// Box-Muller transform (Rng::Gaussian and the AVX2 GaussianAdd kernel)
/// redraws its u1, and Rng::Laplace clamps its 1 - 2|u| up to it.
inline constexpr double kLogFloor = 1e-300;

/// Complete serializable state of an Rng: the xoshiro256++ words plus the
/// Box-Muller spare-sample cache. Restoring this state resumes the stream
/// bit-for-bit, which is what lets a checkpointed training run reproduce
/// the exact noise draws it would have made uninterrupted.
struct RngState {
  uint64_t state[4] = {0, 0, 0, 0};
  bool has_cached_gaussian = false;
  double cached_gaussian = 0.0;
};

/// Deterministic pseudo-random generator (xoshiro256++, not crypto-secure;
/// a production DP deployment would swap in a CSPRNG behind this interface).
class Rng {
 public:
  /// Seeds the state via SplitMix64 so that nearby seeds give unrelated
  /// streams.
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Next raw 64-bit value. Defined here so that the noise kernels'
  /// draw loops inline it.
  uint64_t Next() {
    const uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, bound). A bound of 0 (e.g. sampling from an
  /// empty dataset) returns 0 instead of dividing by zero.
  uint64_t UniformInt(uint64_t bound);

  /// Standard normal variate (mean 0, stddev 1) via Box-Muller.
  double Gaussian();

  /// Normal variate with the given mean and stddev.
  double Gaussian(double mean, double stddev);

  /// Standard Laplace variate scaled by b (density exp(-|x|/b) / 2b).
  double Laplace(double b);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Derives an independent child generator; use to give each component its
  /// own stream from one experiment seed.
  Rng Fork();

  /// Advances the state by 2^128 steps (the standard xoshiro256++ jump),
  /// equivalent to 2^128 calls to Next(). Used to separate substreams.
  void Jump();

  /// Member `stream_id` of a deterministic family of generators rooted at
  /// `root_seed`: the id is mixed into the seed via SplitMix64 and the
  /// stream is jumped once, so distinct ids give statistically independent
  /// streams and the same (root_seed, stream_id) pair always gives the
  /// same stream. This is the substream scheme parallel noise sampling
  /// relies on: one root draw from the parent generator, one substream per
  /// fixed-size chunk, so results are invariant to the thread count.
  static Rng Substream(uint64_t root_seed, uint64_t stream_id);

  /// Snapshot of the full generator state (xoshiro words + Box-Muller
  /// cache) for checkpointing.
  RngState ExportState() const;

  /// Restores a snapshot taken with ExportState; the stream continues
  /// exactly where the exporting generator left off.
  void ImportState(const RngState& state);

 private:
  static uint64_t RotL(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  // Box-Muller produces pairs; the spare sample is cached here.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace geodp

#endif  // GEODP_BASE_RNG_H_
