// Deterministic pseudo-random number generation for the SDC simulation.
//
// Every stochastic component in the library draws from an explicitly seeded Rng so that
// all experiments (tables, figures, tests) are reproducible bit-for-bit. The generator is
// xoshiro256** seeded through SplitMix64, following the reference implementations by
// Blackman and Vigna. We deliberately avoid <random> engines for speed and for a stable
// cross-platform stream (libstdc++ distributions are not portable across versions).

#ifndef SDC_SRC_COMMON_RNG_H_
#define SDC_SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sdc {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
uint64_t SplitMix64(uint64_t& state);

// Mixes a 64-bit value into a well-distributed 64-bit hash (one SplitMix64 round).
uint64_t Mix64(uint64_t value);

// xoshiro256** generator with distribution helpers.
class Rng {
 public:
  // Seeds the four state words from `seed` via SplitMix64.
  explicit Rng(uint64_t seed);

  // Returns the next raw 64-bit output.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Fills `out` with out.size() consecutive raw outputs -- bit-for-bit the sequence that
  // many Next() calls would return, advancing the state identically. The Gaussian cache
  // is untouched (Next() never reads or writes it), which is what lets the blocked fleet
  // generator bulk-fill uniforms between faulty parts without perturbing a Box-Muller
  // partner cached by an earlier defect draw (docs/performance.md).
  void FillBlock(std::span<uint64_t> out);

  // Discards `count` raw outputs; equivalent to (but faster than) calling Next() that
  // many times. Used to replay a copied Rng forward to a known draw position.
  void Skip(uint64_t count);

  // Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound). `bound` must be positive. Uses rejection-free
  // multiply-shift (Lemire); bias is negligible for bound << 2^64.
  uint64_t NextBelow(uint64_t bound) {
    // Lemire's multiply-shift. Bias is < bound / 2^64, irrelevant at our scales.
    const unsigned __int128 product = static_cast<unsigned __int128>(Next()) * bound;
    return static_cast<uint64_t>(product >> 64);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(NextBelow(span));
  }

  // Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return NextDouble() < p;
  }

  // Exponential variate with the given rate (mean 1/rate). `rate` must be positive.
  double NextExponential(double rate);

  // Standard normal variate (Box-Muller, one value per call; the pair's partner is cached).
  double NextGaussian();

  // Normal variate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  // Poisson variate with the given mean. Uses Knuth's method for small means and a
  // normal approximation (rounded, clamped at zero) for means above 64.
  uint64_t NextPoisson(double mean);

  // Picks an index in [0, weights.size()) proportionally to non-negative `weights`.
  // Degenerate inputs are defined and draw-free: an empty vector or a non-positive total
  // returns 0 without consuming a draw (callers holding an empty vector must treat the 0
  // as "no choice", not an index). With a positive total exactly one draw is consumed,
  // and rounding at the top of the range clamps to the last index.
  size_t NextWeighted(const std::vector<double>& weights);

  // Creates an independent child stream; deterministic in (parent seed, tag). Reads only
  // the stored seed, so concurrent forks off one parent are safe and the parent's own
  // stream position is never perturbed.
  Rng Fork(uint64_t tag) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
  uint64_t seed_;  // retained for Fork()
};

// The integer draw space of NextDouble: every uniform is (Next() >> 11) * 2^-53, so each
// draw is fully described by its 53-bit mantissa u53 = Next() >> 11 in [0, kU53End).
// kU53End itself is therefore a boundary value strictly above every possible draw.
inline constexpr uint64_t kU53End = uint64_t{1} << 53;

// Smallest u53 for which NextDouble() >= p, i.e. NextBernoulli(p) with p in (0, 1) is
// true exactly for draws with u53 < BernoulliThresholdU53(p). Found by binary search over
// the exact comparison NextBernoulli performs, so the threshold test is bit-equivalent to
// the floating-point one. Returns 0 for p <= 0 (never) and kU53End for p >= 1 (always) --
// but note NextBernoulli consumes no draw in those two regimes.
uint64_t BernoulliThresholdU53(double p);

// Precomputed form of Rng::NextWeighted for a fixed weight vector.
//
// NextWeighted re-sums its weights and walks a subtraction chain on every call. For hot
// paths that draw from the same weights millions of times (the fleet generator's arch
// pick, a defect's pattern choice), WeightedCdf finds the exact boundaries of that chain
// in u53 space once, by binary search over the chain itself -- not by re-deriving them
// with different floating-point arithmetic -- so Sample(rng) returns bit-for-bit the
// index NextWeighted(weights) would have, with identical draw consumption, for every
// possible Rng state. (The chain's index is a monotone step function of the draw, which
// is what makes the boundaries well defined.)
//
// Degenerate inputs follow NextWeighted exactly: empty weights or a non-positive total
// make Sample return 0 without consuming a draw; non-finite weights (whose comparisons
// defeat the monotonicity the search needs) fall back to running the chain per draw.
class WeightedCdf {
 public:
  WeightedCdf() = default;
  explicit WeightedCdf(std::span<const double> weights);

  size_t size() const { return size_; }
  // True when Sample consumes exactly one raw draw; false makes Sample return 0 and
  // leave the Rng untouched (empty weights or total <= 0, as in NextWeighted).
  bool draws() const { return draws_; }
  // True when the u53 boundaries are valid (all weights finite). The blocked fleet
  // generator requires exact() && draws() to classify bulk draws with IndexOf.
  bool exact() const { return exact_; }
  // Chain boundaries for indices 0..size-2, ascending: for a drawing, exact cdf,
  // IndexOf(raw) == number of boundaries <= (raw >> 11).
  std::span<const uint64_t> bounds_u53() const { return bounds_; }

  // Exactly NextWeighted(weights) on `rng`: same index, same draw consumption.
  size_t Sample(Rng& rng) const;

  // Classifies one raw Next() output. Requires exact() && draws().
  size_t IndexOf(uint64_t raw) const;

 private:
  std::vector<uint64_t> bounds_;
  std::vector<double> weights_;  // retained only for the non-finite fallback
  size_t size_ = 0;
  bool draws_ = false;
  bool exact_ = true;
};

}  // namespace sdc

#endif  // SDC_SRC_COMMON_RNG_H_
