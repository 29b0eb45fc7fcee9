#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace sdc {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t value) {
  uint64_t state = value;
  return SplitMix64(state);
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

// Cache-line aligned so the loop's speed does not depend on the link layout (see
// CountBytesScalar in src/common/simd.cc).
__attribute__((aligned(64)))
void Rng::FillBlock(std::span<uint64_t> out) {
  // The state lives in locals for the loop so the compiler keeps it in registers; the
  // update is Next()'s, verbatim.
  uint64_t s0 = state_[0];
  uint64_t s1 = state_[1];
  uint64_t s2 = state_[2];
  uint64_t s3 = state_[3];
  for (uint64_t& value : out) {
    value = Rotl(s1 * 5, 7) * 9;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

void Rng::Skip(uint64_t count) {
  uint64_t s0 = state_[0];
  uint64_t s1 = state_[1];
  uint64_t s2 = state_[2];
  uint64_t s3 = state_[3];
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

double Rng::NextExponential(double rate) {
  // -log(1 - u) is in (0, inf); 1 - NextDouble() is in (0, 1].
  return -std::log(1.0 - NextDouble()) / rate;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::NextGaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

uint64_t Rng::NextPoisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    const double v = NextGaussian(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(v));
  }
  const double limit = std::exp(-mean);
  uint64_t count = 0;
  double product = NextDouble();
  while (product > limit) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  // Empty weights short-circuit before any arithmetic: the zero total below would also
  // land here, but being explicit keeps the final clamp (`weights.size() - 1`) reachable
  // only for non-empty vectors -- it used to underflow to SIZE_MAX on an empty vector
  // whose (NaN-polluted) total escaped the `total <= 0` test.
  if (weights.empty()) {
    return 0;
  }
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  if (total <= 0.0) {
    return 0;
  }
  double pick = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t tag) const { return Rng(Mix64(seed_ ^ Mix64(tag))); }

namespace {

// Replays NextWeighted's arithmetic -- the same two roundings NextDouble() * total
// performs, then the same subtraction chain -- for the draw whose 53-bit mantissa is
// `u53`. Kept next to NextWeighted so the two can only diverge by an edit that touches
// both. Requires non-empty weights.
size_t WeightedChainIndex(uint64_t u53, std::span<const double> weights, double total) {
  double pick = static_cast<double>(u53) * 0x1.0p-53 * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

}  // namespace

uint64_t BernoulliThresholdU53(double p) {
  if (!(p > 0.0)) {
    return 0;
  }
  if (p >= 1.0) {
    return kU53End;
  }
  // Monotone predicate: static_cast<double>(u53) * 2^-53 is exact (u53 < 2^53), so
  // "NextDouble() < p" is true exactly on a prefix of u53 space. Find its end.
  uint64_t lo = 0;        // highest u53 known to satisfy the predicate, plus one
  uint64_t hi = kU53End;  // lowest u53 known to fail it (2^53 * 2^-53 == 1.0 >= p)
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) * 0x1.0p-53 < p) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

WeightedCdf::WeightedCdf(std::span<const double> weights) : size_(weights.size()) {
  if (weights.empty()) {
    return;  // draws_ = false: NextWeighted returns 0 without drawing
  }
  double total = 0.0;
  bool finite = true;
  for (double w : weights) {
    finite = finite && std::isfinite(w);
    total += w;
  }
  if (!finite || !std::isfinite(total)) {
    // Non-finite weights poison the chain's comparisons (NaN compares false), so the
    // monotonicity the boundary search needs is gone. Keep the weights and run the real
    // chain per draw -- still bit-faithful, just not precomputed.
    exact_ = false;
    draws_ = !(total <= 0.0);  // NaN total: NextWeighted draws (its test is `<= 0`)
    weights_.assign(weights.begin(), weights.end());
    return;
  }
  if (total <= 0.0) {
    return;  // draws_ = false
  }
  draws_ = true;
  // For each index i, find the smallest u53 whose chain index exceeds i. The chain index
  // is nondecreasing in u53 (every step of the chain is monotone in pick), so each
  // boundary is a plain binary search, and they come out ascending by construction.
  bounds_.resize(size_ - 1);
  uint64_t lo = 0;
  for (size_t i = 0; i + 1 < size_; ++i) {
    uint64_t hi = kU53End;  // sentinel: above every possible draw
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (WeightedChainIndex(mid, weights, total) > i) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    bounds_[i] = lo;  // == hi; next search resumes here (boundaries ascend)
  }
}

size_t WeightedCdf::Sample(Rng& rng) const {
  if (!draws_) {
    return 0;
  }
  if (!exact_) {
    return rng.NextWeighted(weights_);
  }
  return IndexOf(rng.Next());
}

size_t WeightedCdf::IndexOf(uint64_t raw) const {
  const uint64_t u53 = raw >> 11;
  // Small vectors (the 9-arch CDF, a defect's handful of patterns) beat binary search
  // with a branch-free linear count.
  if (bounds_.size() <= 16) {
    size_t index = 0;
    for (uint64_t bound : bounds_) {
      index += bound <= u53 ? 1 : 0;
    }
    return index;
  }
  return static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), u53) - bounds_.begin());
}

}  // namespace sdc
