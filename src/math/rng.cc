#include "math/rng.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "math/gaussian.h"

namespace uqp {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBelow(uint64_t n) {
  UQP_DCHECK(n >= 1);
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    uint64_t threshold = (0ULL - n) % n;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  UQP_DCHECK(lo <= hi);
  // Span and sum in uint64_t, where they wrap instead of overflowing; the
  // full int64 range has 2^64 values, one per NextU64 draw.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const uint64_t offset =
      span == std::numeric_limits<uint64_t>::max() ? NextU64() : NextBelow(span + 1);
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
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
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextExponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xd1b54a32d192ed03ULL); }

Rng Rng::SubStream(uint64_t index) const {
  // Avalanche (seed, index) into a fresh seed. index + 1 keeps
  // SubStream(0) distinct from the parent stream itself.
  uint64_t sm = seed_ ^ ((index + 1) * 0x9e3779b97f4a7c15ULL);
  return Rng(SplitMix64(&sm));
}

std::vector<uint32_t> Rng::Permutation(uint32_t n) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(NextBelow(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace uqp
