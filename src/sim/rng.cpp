#include "sim/rng.hpp"

#include <cmath>

#include "sim/contracts.hpp"

namespace mkos::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MKOS_EXPECTS(lo <= hi);
  return lo + (hi - lo) * next_double();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  MKOS_EXPECTS(n > 0);
  // Rejection-free modulo is fine for simulation purposes (bias < 2^-53).
  return next_u64() % n;
}

double Rng::exponential(double mean) {
  MKOS_EXPECTS(mean > 0);
  double u = next_double();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  MKOS_EXPECTS(stddev >= 0);
  // Box-Muller (cosine branch; the sine twin is discarded to keep the
  // draw count a fixed two uniforms per call).
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

double Rng::gamma(double shape, double scale) {
  MKOS_EXPECTS(shape > 0 && scale > 0);
  if (shape < 1.0) {
    // Boost: if G ~ Gamma(shape + 1) and U uniform, G * U^(1/shape) is
    // Gamma(shape).
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000): squeeze-accept on a transformed normal.
  // Acceptance probability is > 95% across all shapes, so the expected
  // draw count is a small constant even for shape in the millions.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal(0.0, 1.0);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v * scale;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v * scale;
  }
}

double Rng::exponential_sum(std::uint64_t n, double mean) {
  MKOS_EXPECTS(mean > 0);
  if (n == 0) return 0.0;
  if (n == 1) return exponential(mean);
  return gamma(static_cast<double>(n), mean);
}

double Rng::pareto(double xm, double alpha) {
  MKOS_EXPECTS(xm > 0 && alpha > 0);
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::poisson(double mean) {
  MKOS_EXPECTS(mean >= 0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Inversion by sequential search.
    const double limit = std::exp(-mean);
    double prod = next_double();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= next_double();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction; adequate for noise
  // event counts where mean is large and individual counts are summed anyway.
  double u1 = next_double();
  double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double v = mean + std::sqrt(mean) * z + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

Rng Rng::fork(std::uint64_t tag) const {
  // Mix the child tag with the parent state; deterministic and independent
  // of how many numbers the parent has drawn since construction is captured
  // in s_[0..3].
  std::uint64_t x = s_[0] ^ rotl(s_[2], 13) ^ (tag * 0x9e3779b97f4a7c15ULL);
  return Rng{splitmix64(x)};
}

}  // namespace mkos::sim
