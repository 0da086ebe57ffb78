// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace casm {
namespace {

constexpr double kEulerMascheroni = 0.5772;

}  // namespace

double ExpectedMaxStandardNormal(int m) {
  CASM_CHECK_GE(m, 2);
  const double ln_m = std::log(static_cast<double>(m));
  const double root = std::sqrt(2.0 * ln_m);
  return root - (std::log(ln_m) + std::log(4.0 * M_PI) -
                 2.0 * kEulerMascheroni) /
                    (2.0 * root);
}

namespace {

/// The (1 - 1/m) quantile of Poisson(lambda): the expected maximum of m
/// i.i.d. Poisson counts sits essentially at this quantile (extreme-value
/// theory). Used where the paper's normal approximation breaks down.
double PoissonMaxQuantile(double lambda, int m) {
  const double target = 1.0 - 1.0 / static_cast<double>(m);
  double p = std::exp(-lambda);
  double cdf = p;
  int k = 0;
  while (cdf < target && k < 1000000) {
    ++k;
    p *= lambda / k;
    cdf += p;
  }
  return k;
}

}  // namespace

double ExpectedMaxReducerLoad(double total_records, double num_blocks, int m) {
  CASM_CHECK_GE(m, 1);
  if (m == 1) return total_records;
  if (num_blocks < 1) num_blocks = 1;
  const double block_size = total_records / num_blocks;
  const double lambda = num_blocks / m;  // expected blocks per reducer
  if (lambda < 32) {
    // Few blocks per reducer: the paper's normal approximation (asymptotic
    // in n_G) badly underestimates the imbalance; use the Poisson extreme
    // quantile instead. Some reducer always holds at least one block, so
    // the maximum is never below one block.
    return block_size * std::max(1.0, PoissonMaxQuantile(lambda, m));
  }
  // Count per reducer ~ Binomial(n, 1/m); its normal approximation has
  // sigma = sqrt(n (m-1)) / m blocks. Scale by the block size (paper
  // Formula (2)).
  const double sigma_records =
      block_size * std::sqrt(num_blocks * (m - 1)) / m;
  return total_records / m + sigma_records * ExpectedMaxStandardNormal(m);
}

double NonOverlappingMaxLoad(int64_t num_records, int64_t n_g, int m) {
  return ExpectedMaxReducerLoad(static_cast<double>(num_records),
                                static_cast<double>(n_g), m);
}

double OverlappingMaxLoad(int64_t num_records, int64_t n_g, int64_t d, int m,
                          int64_t cf) {
  CASM_CHECK_GE(cf, 1);
  const double workload = static_cast<double>(num_records) *
                          static_cast<double>(d + cf) /
                          static_cast<double>(cf);
  const double blocks =
      std::max(1.0, static_cast<double>(n_g) / static_cast<double>(cf));
  return ExpectedMaxReducerLoad(workload, blocks, m);
}

int64_t OptimalClusteringFactor(int64_t num_records, int64_t n_g, int64_t d,
                                int m, int64_t min_blocks) {
  CASM_CHECK_GE(n_g, 1);
  int64_t cf_max = std::max<int64_t>(1, n_g);
  if (min_blocks > 0) {
    // Keep at least min_blocks blocks per reducer: n_g / cf >= min_blocks*m.
    cf_max = std::max<int64_t>(
        1, n_g / std::max<int64_t>(1, min_blocks * static_cast<int64_t>(m)));
  }
  if (d == 0) return 1;  // no overlap: more blocks is strictly better
  if (m == 1) return cf_max;  // a single reducer only pays for duplication

  // Stationary point of f(cf) = A (d+cf)/cf + B (d+cf)/sqrt(cf):
  // B x^3 - B d x - 2 A d = 0 with x = sqrt(cf).
  const double a = static_cast<double>(num_records) / m;
  const double b = static_cast<double>(num_records) *
                   std::sqrt(static_cast<double>(m - 1)) *
                   ExpectedMaxStandardNormal(m) /
                   (m * std::sqrt(static_cast<double>(n_g)));
  const double dd = static_cast<double>(d);

  // Newton iteration on g(x) = B x^3 - B d x - 2 A d; g is increasing for
  // x > sqrt(d/3) and the positive root is unique beyond that, so start
  // from a point safely to the right.
  double x = std::max(std::cbrt(2.0 * a * dd / b + dd), std::sqrt(dd) + 1.0);
  for (int iter = 0; iter < 60; ++iter) {
    const double g = b * x * x * x - b * dd * x - 2.0 * a * dd;
    const double gp = 3.0 * b * x * x - b * dd;
    if (gp <= 0) break;
    const double next = x - g / gp;
    if (!(next > 0) || std::fabs(next - x) < 1e-9 * x) {
      x = next > 0 ? next : x;
      break;
    }
    x = next;
  }

  const double cf_real = x * x;

  // The cubic root seeds a discrete refinement. The load function has
  // plateaus in the few-blocks-per-reducer regime, so the small range is
  // scanned exhaustively (it is cheap) and larger values geometrically,
  // always keeping the analytic seed and the boundaries as candidates.
  int64_t best = 1;
  double best_load = OverlappingMaxLoad(num_records, n_g, d, m, 1);
  auto consider = [&](int64_t candidate) {
    candidate = std::clamp<int64_t>(candidate, 1, cf_max);
    const double load = OverlappingMaxLoad(num_records, n_g, d, m, candidate);
    if (load < best_load) {
      best_load = load;
      best = candidate;
    }
  };
  const int64_t exhaustive_limit = std::min<int64_t>(cf_max, 4096);
  for (int64_t cf = 2; cf <= exhaustive_limit; ++cf) consider(cf);
  for (double cf = 4096.0; cf < static_cast<double>(cf_max); cf *= 1.02) {
    consider(static_cast<int64_t>(cf));
  }
  consider(cf_max);
  consider(static_cast<int64_t>(cf_real));
  consider(static_cast<int64_t>(std::ceil(cf_real)));
  return best;
}

double SimulatedMaxReducerLoad(double total_records, int64_t num_blocks,
                               int m, int trials, uint64_t seed) {
  CASM_CHECK_GE(m, 1);
  CASM_CHECK_GE(trials, 1);
  if (num_blocks < 1) num_blocks = 1;
  const double block_size = total_records / static_cast<double>(num_blocks);
  Rng rng(seed);
  double sum = 0;
  std::vector<int64_t> counts(static_cast<size_t>(m));
  for (int t = 0; t < trials; ++t) {
    std::fill(counts.begin(), counts.end(), 0);
    for (int64_t i = 0; i < num_blocks; ++i) {
      ++counts[static_cast<size_t>(rng.Uniform(static_cast<uint64_t>(m)))];
    }
    int64_t max_count = 0;
    for (int64_t c : counts) max_count = std::max(max_count, c);
    sum += static_cast<double>(max_count) * block_size;
  }
  return sum / trials;
}

}  // namespace casm
