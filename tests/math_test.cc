// Unit and property tests for the math substrate: RNG, Gaussian moments,
// the paper's Lemma 4 / Lemma 8 variance formulas, rank statistics, the
// proximity metric, NNLS, and the Zipf sampler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "math/gaussian.h"
#include "math/nnls.h"
#include "math/rng.h"
#include "math/stats.h"
#include "math/zipf.h"

namespace uqp {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.NextU64() != c.NextU64()) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformDoublesInRange) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NextBelowBounds) {
  Rng rng(11);
  for (uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(n), n);
    }
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextIntDrawsArePinned) {
  // Draws from an ordinary range and a wide one, fixed for this seed.
  Rng rng(2024);
  const std::vector<int64_t> want = {501, 259, 205, 393, 736, 799, 978, 646};
  for (const int64_t w : want) EXPECT_EQ(rng.NextInt(-50, 1000), w);
  Rng wide(2024);
  const int64_t bound = int64_t{1} << 61;
  EXPECT_EQ(wide.NextInt(-bound, bound), int64_t{112670598160408756});
  EXPECT_EQ(wide.NextInt(-bound, bound), int64_t{-945831025513227586});
}

TEST(Rng, NextIntCoversSpansWiderThanInt64Max) {
  // hi - lo does not fit in int64 for these ranges.
  const int64_t lowest = std::numeric_limits<int64_t>::min();
  const int64_t highest = std::numeric_limits<int64_t>::max();
  const int64_t half = int64_t{1} << 62;
  Rng full(31), mirror(31);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 64; ++i) {
    // The full range maps each 64-bit draw to one value.
    const int64_t v = full.NextInt(lowest, highest);
    EXPECT_EQ(static_cast<uint64_t>(v), mirror.NextU64() + static_cast<uint64_t>(lowest));
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  Rng rng(37);
  saw_negative = saw_positive = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-half, half);
    ASSERT_GE(v, -half);
    ASSERT_LE(v, half);
    saw_negative |= v < -half / 2;
    saw_positive |= v > half / 2;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  EXPECT_EQ(rng.NextInt(highest, highest), highest);
  EXPECT_EQ(rng.NextInt(lowest, lowest), lowest);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ForkDecorrelates) {
  Rng rng(19);
  Rng fork = rng.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (rng.NextU64() == fork.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SubStreamDependsOnlyOnSeedAndIndex) {
  // The per-shard determinism primitive: SubStream(i) must be the same
  // stream no matter how many draws the parent made, how many substreams
  // exist, or in what order they are taken.
  Rng fresh(19);
  Rng drained(19);
  for (int i = 0; i < 1000; ++i) drained.NextU64();
  for (uint64_t index : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{63}}) {
    Rng a = fresh.SubStream(index);
    Rng b = drained.SubStream(index);
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(a.NextU64(), b.NextU64()) << "index " << index;
    }
  }
  // Order of derivation is irrelevant too.
  Rng parent(19);
  Rng s3_first = parent.SubStream(3);
  Rng s0 = parent.SubStream(0);
  Rng s3_again = parent.SubStream(3);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(s3_first.NextU64(), s3_again.NextU64());
  }
  (void)s0;
}

TEST(Rng, SubStreamsDecorrelated) {
  Rng rng(19);
  Rng a = rng.SubStream(0);
  Rng b = rng.SubStream(1);
  Rng parent_stream(19);
  int equal_ab = 0, equal_parent = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextU64();
    if (va == b.NextU64()) ++equal_ab;
    if (va == parent_stream.NextU64()) ++equal_parent;
  }
  EXPECT_LT(equal_ab, 3);
  EXPECT_LT(equal_parent, 3) << "SubStream(0) must differ from the parent";
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(23);
  const auto perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (uint32_t v : perm) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

// ---------- Gaussian ----------

TEST(Gaussian, CdfBasics) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(NormalCdf(10.0, 10.0, 4.0), 0.5, 1e-12);
}

TEST(Gaussian, DegenerateCdf) {
  EXPECT_EQ(NormalCdf(1.0, 2.0, 0.0), 0.0);
  EXPECT_EQ(NormalCdf(3.0, 2.0, 0.0), 1.0);
}

class QuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTrip, CdfOfQuantileIsIdentity) {
  const double p = GetParam();
  EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileRoundTrip,
                         ::testing::Values(1e-6, 0.001, 0.01, 0.1, 0.3, 0.5,
                                           0.7, 0.9, 0.975, 0.999, 1.0 - 1e-6));

struct MomentCase {
  double mu;
  double var;
};

class NormalMomentTest : public ::testing::TestWithParam<MomentCase> {};

TEST_P(NormalMomentTest, MatchesMonteCarlo) {
  const auto [mu, var] = GetParam();
  Rng rng(101);
  double acc[5] = {0, 0, 0, 0, 0};
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian(mu, std::sqrt(var));
    double p = 1.0;
    for (int k = 0; k <= 4; ++k) {
      acc[k] += p;
      p *= x;
    }
  }
  for (int k = 1; k <= 4; ++k) {
    const double mc = acc[k] / n;
    const double exact = NormalMoment(mu, var, k);
    const double tol = 0.02 * std::max(1.0, std::fabs(exact));
    EXPECT_NEAR(mc, exact, tol) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, NormalMomentTest,
                         ::testing::Values(MomentCase{0.0, 1.0},
                                           MomentCase{1.0, 0.25},
                                           MomentCase{-2.0, 4.0},
                                           MomentCase{0.3, 0.01}));

TEST(Gaussian, Lemma4QuadraticVarianceMatchesMonteCarlo) {
  // f = b0 X^2 + b1 X + b2, X ~ N(0.4, 0.09).
  const double b0 = 2.0, b1 = -1.0, mu = 0.4, var = 0.09;
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 400000; ++i) {
    const double x = rng.NextGaussian(mu, std::sqrt(var));
    stats.Add(b0 * x * x + b1 * x + 5.0);
  }
  EXPECT_NEAR(stats.variance(), QuadraticFormVariance(b0, b1, mu, var),
              0.02 * stats.variance());
}

TEST(Gaussian, Lemma8BilinearVarianceMatchesMonteCarlo) {
  // f = b0 Xl Xr + b1 Xl + b2 Xr + b3 with independent normals.
  const double b0 = 3.0, b1 = 0.5, b2 = -2.0;
  const double mul = 0.2, varl = 0.04, mur = 0.7, varr = 0.01;
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 400000; ++i) {
    const double xl = rng.NextGaussian(mul, std::sqrt(varl));
    const double xr = rng.NextGaussian(mur, std::sqrt(varr));
    stats.Add(b0 * xl * xr + b1 * xl + b2 * xr + 1.0);
  }
  EXPECT_NEAR(stats.variance(),
              BilinearFormVariance(b0, b1, b2, mul, varl, mur, varr),
              0.02 * stats.variance());
}

TEST(Gaussian, ProductMomentsOfIndependentNormals) {
  EXPECT_DOUBLE_EQ(ProductMean(2.0, 3.0), 6.0);
  // Var[XY] = mul^2 varr + mur^2 varl + varl varr.
  EXPECT_DOUBLE_EQ(ProductVariance(2.0, 0.5, 3.0, 0.25), 4.0 * 0.25 + 9.0 * 0.5 + 0.125);
  EXPECT_DOUBLE_EQ(CovProductLeft(0.5, 3.0), 1.5);
  EXPECT_DOUBLE_EQ(CovProductRight(2.0, 0.25), 0.5);
}

TEST(Gaussian, VarOfSquareAndCovSquareLinear) {
  // Known identities for X ~ N(mu, var).
  EXPECT_DOUBLE_EQ(VarOfSquare(1.0, 2.0), 2.0 * 2.0 * (2.0 + 2.0));
  EXPECT_DOUBLE_EQ(CovSquareLinear(3.0, 0.5), 3.0);
}

TEST(Gaussian, StructOps) {
  const Gaussian g(2.0, 9.0);
  EXPECT_DOUBLE_EQ(g.stddev(), 3.0);
  const Gaussian sum = g + Gaussian(1.0, 16.0);
  EXPECT_DOUBLE_EQ(sum.mean, 3.0);
  EXPECT_DOUBLE_EQ(sum.variance, 25.0);
  const Gaussian affine = g.Affine(2.0, 1.0);
  EXPECT_DOUBLE_EQ(affine.mean, 5.0);
  EXPECT_DOUBLE_EQ(affine.variance, 36.0);
}

// ---------- Stats ----------

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(SampleVariance(xs), 2.5);
  EXPECT_DOUBLE_EQ(PopulationVariance(xs), 2.0);
}

TEST(Stats, PearsonPerfectAndInverse) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> up = {2, 4, 6, 8};
  const std::vector<double> down = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(xs, down), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation(xs, {5, 5, 5, 5}), 0.0);
}

TEST(Stats, FractionalRanksWithTies) {
  // Paper example: sigmas 4, 7, 5 -> ranks 1, 3, 2.
  EXPECT_EQ(FractionalRanks({4, 7, 5}), (std::vector<double>{1, 3, 2}));
  EXPECT_EQ(FractionalRanks({1, 1, 2}), (std::vector<double>{1.5, 1.5, 3}));
}

TEST(Stats, SpearmanMonotonicNonlinearIsOne) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 50; ++i) {
    xs.push_back(i);
    ys.push_back(std::exp(0.2 * i));  // monotone but very nonlinear
  }
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(xs, ys), 0.95);
}

TEST(Stats, SpearmanRobustToOutlier) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
  std::vector<double> ys = {2, 1, 4, 3, 6, 5, 8, 7, 10, 2000};
  const double rs = SpearmanCorrelation(xs, ys);
  const double rp = PearsonCorrelation(xs, ys);
  EXPECT_GT(rp, 0.999);  // dominated by the outlier
  // Rank view is not fooled: exact value 1 - 6*8/990 for this data.
  EXPECT_NEAR(rs, 0.9515, 0.001);
  EXPECT_LT(rs, rp);
}

TEST(Stats, FitLineRecoversSlope) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
}

TEST(Stats, ProximityOfCalibratedNormalErrorsIsSmall) {
  // If normalized errors are |N(0,1)| draws, Pr_n tracks Pr and D_n ~ 0.
  Rng rng(5);
  std::vector<double> normalized;
  for (int i = 0; i < 5000; ++i) {
    normalized.push_back(std::fabs(rng.NextGaussian()));
  }
  const ProximityResult r = ComputeProximity(normalized);
  EXPECT_LT(r.dn, 0.02);
}

TEST(Stats, ProximityOfUnderestimatedVarianceIsLarge) {
  // Errors twice as large as claimed -> clear distributional mismatch.
  Rng rng(6);
  std::vector<double> normalized;
  for (int i = 0; i < 5000; ++i) {
    normalized.push_back(std::fabs(2.5 * rng.NextGaussian()));
  }
  const ProximityResult r = ComputeProximity(normalized);
  EXPECT_GT(r.dn, 0.15);
}

TEST(Stats, Figure5GridMatchesPaper) {
  const auto grid = Figure5AlphaGrid();
  EXPECT_EQ(grid.size(), 16u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.1);
  EXPECT_DOUBLE_EQ(grid.back(), 4.0);
}

// ---------- NNLS ----------

// y = 2x + 1 over four points; both coefficients free.
NnlsProblem ExactLineProblem() {
  NnlsProblem p;
  p.rows = 4;
  p.cols = 2;
  p.nonnegative = {false, false};
  for (double x : {0.0, 1.0, 2.0, 3.0}) {
    p.a.insert(p.a.end(), {x, 1.0});
    p.y.push_back(2.0 * x + 1.0);
  }
  return p;
}

// y = 10 - 2x with a constrained slope and a free constant.
NnlsProblem NegativeSlopeProblem() {
  NnlsProblem p;
  p.rows = 4;
  p.cols = 2;
  p.nonnegative = {true, false};
  for (double x : {0.0, 1.0, 2.0, 3.0}) {
    p.a.insert(p.a.end(), {x, 1.0});
    p.y.push_back(10.0 - 2.0 * x);
  }
  return p;
}

// y = 4x - 2 with a constrained slope and a free constant.
NnlsProblem NegativeConstantProblem() {
  NnlsProblem p;
  p.rows = 3;
  p.cols = 2;
  p.nonnegative = {true, false};
  for (double x : {1.0, 2.0, 3.0}) {
    p.a.insert(p.a.end(), {x, 1.0});
    p.y.push_back(4.0 * x - 2.0);
  }
  return p;
}

// A quadratic over selectivity-like points: columns spanning orders of
// magnitude.
NnlsProblem ScaledQuadraticProblem() {
  NnlsProblem p;
  p.rows = 9;
  p.cols = 3;
  p.nonnegative = {true, true, false};
  for (int i = 0; i <= 8; ++i) {
    const double x = 1e-4 + 1e-4 * i;
    p.a.insert(p.a.end(), {x * x, x, 1.0});
    p.y.push_back(5e7 * x * x + 3e4 * x + 11.0);
  }
  return p;
}

// The fitter's bilinear shape (C6') on a 5 x 5 grid: the target's negative
// Xr slope and its N log N term make the active set add and drop columns.
NnlsProblem BilinearGridProblem() {
  NnlsProblem p;
  p.rows = 25;
  p.cols = 4;
  p.nonnegative = {true, true, true, false};
  for (int i = 0; i < 5; ++i) {
    const double xl = 0.02 + 0.01 * i;
    for (int j = 0; j < 5; ++j) {
      const double xr = 0.3 + 0.05 * j;
      const double n = 6000.0 * xl * xr;
      p.a.insert(p.a.end(), {xl * xr, xl, xr, 1.0});
      p.y.push_back(n * std::log2(std::max(2.0, n)) + 500.0 * xl - 40.0 * xr +
                    3.0);
    }
  }
  return p;
}

TEST(Nnls, UnconstrainedExactFit) {
  auto result = SolveNnls(ExactLineProblem());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->coefficients[0], 2.0, 1e-8);
  EXPECT_NEAR(result->coefficients[1], 1.0, 1e-8);
  EXPECT_NEAR(result->residual_norm, 0.0, 1e-8);
}

TEST(Nnls, NonnegativityClampsNegativeSlope) {
  // Best unconstrained slope is negative; constrained solution must have
  // slope exactly 0 and intercept = mean(y).
  auto result = SolveNnls(NegativeSlopeProblem());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->coefficients[0], 0.0, 1e-10);
  EXPECT_NEAR(result->coefficients[1], 7.0, 1e-8);
}

TEST(Nnls, FreeConstantCanGoNegative) {
  auto result = SolveNnls(NegativeConstantProblem());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->coefficients[0], 4.0, 1e-8);
  EXPECT_NEAR(result->coefficients[1], -2.0, 1e-8);
}

TEST(Nnls, QuadraticRecoveryWithScaling) {
  auto result = SolveNnls(ScaledQuadraticProblem());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->coefficients[0], 5e7, 5e7 * 1e-4);
  EXPECT_NEAR(result->coefficients[1], 3e4, 3e4 * 1e-3);
  EXPECT_NEAR(result->coefficients[2], 11.0, 0.05);
}

TEST(Nnls, FullyConstrainedClassicCase) {
  // Classic NNLS sanity: all coefficients nonnegative.
  auto result = SolveNnls({1.0, 0.0, 0.0, 1.0, 1.0, 1.0}, 3, 2, {2.0, 3.0, 5.0});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->coefficients[0], 0.0);
  EXPECT_GE(result->coefficients[1], 0.0);
}

TEST(Nnls, ShapeErrors) {
  NnlsProblem p;
  p.rows = 0;
  p.cols = 2;
  EXPECT_FALSE(SolveNnls(p).ok());
  p.rows = 2;
  p.cols = 2;
  p.a = {1, 2, 3};  // wrong size
  p.y = {1, 2};
  EXPECT_FALSE(SolveNnls(p).ok());
}

// A NaN or an infinity anywhere in the matrix or the target is rejected
// before any solve, the all-zero short cut included.
TEST(Nnls, NonFiniteInputIsRejected) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double bad : bad_values) {
    NnlsProblem in_a = NegativeSlopeProblem();
    in_a.a[3] = bad;
    auto result = SolveNnls(in_a);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;

    NnlsProblem in_y = NegativeSlopeProblem();
    in_y.y[2] = bad;
    result = SolveNnls(in_y);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;

    NnlsProblem zero_y = NegativeSlopeProblem();
    std::fill(zero_y.y.begin(), zero_y.y.end(), 0.0);
    zero_y.y[1] = bad;
    result = SolveNnls(zero_y);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Every coefficient's bit pattern and the residual norm's, per problem: any
// reordering of the solver's arithmetic (the column scaling, the passive
// set's order, the elimination) shows up here.
TEST(Nnls, ResultBitsArePinned) {
  NnlsProblem classic;
  classic.a = {1.0, 0.0, 0.0, 1.0, 1.0, 1.0};
  classic.y = {2.0, 3.0, 5.0};
  classic.rows = 3;
  classic.cols = 2;
  classic.nonnegative = {true, true};
  const struct {
    const char* name;
    NnlsProblem problem;
    std::vector<uint64_t> bits;  // coefficients, then residual_norm
  } cases[] = {
      {"exact line",
       ExactLineProblem(),
       {0x3fffffffffffb296, 0x3ff0000000006285, 0x3da61505e2787db0}},
      {"negative slope",
       NegativeSlopeProblem(),
       {0x0000000000000000, 0x401bffffffffe136, 0x4011e3779b97f4a8}},
      {"negative constant",
       NegativeConstantProblem(),
       {0x400ffffffffed4f2, 0xbffffffffffb309e, 0x3dca804f80018131}},
      {"scaled quadratic",
       ScaledQuadraticProblem(),
       {0x4187d783ffff6126, 0x40dd4c00000104ed, 0x4025ffffffffaf98,
        0x3dd56d6dba4b239f}},
      {"classic",
       classic,
       {0x3ffffffffffff446, 0x4007ffffffffe88c, 0x3d92ff68ff571c71}},
      {"bilinear grid",
       BilinearGridProblem(),
       {0x40e7bdf87cde6452, 0x406dda837155d3cb, 0x0000000000000000,
        0xc061264afdf937a4, 0x404cc2165950e8e2}},
  };
  for (const auto& c : cases) {
    auto result = SolveNnls(c.problem);
    ASSERT_TRUE(result.ok()) << c.name;
    std::vector<uint64_t> bits;
    for (double b : result->coefficients) bits.push_back(DoubleBits(b));
    bits.push_back(DoubleBits(result->residual_norm));
    std::string got;
    for (uint64_t b : bits) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), " 0x%016llx",
                    static_cast<unsigned long long>(b));
      got += hex;
    }
    EXPECT_EQ(bits, c.bits) << c.name << ":" << got;
  }
}

// An all-zero target (either sign of zero) gives +0.0 coefficients and a
// zero residual, with one free constant and 1-3 constrained columns.
TEST(Nnls, ZeroTargetsGiveExactZeros) {
  for (int cols = 2; cols <= 4; ++cols) {
    for (double zero : {0.0, -0.0}) {
      NnlsProblem p;
      p.rows = 7;
      p.cols = cols;
      p.nonnegative.assign(static_cast<size_t>(cols), true);
      p.nonnegative.back() = false;
      for (int r = 0; r < p.rows; ++r) {
        const double x = 0.1 + 0.05 * r;
        for (int c = 0; c + 1 < cols; ++c) p.a.push_back(std::pow(x, c + 1));
        p.a.push_back(1.0);
        p.y.push_back(zero);
      }
      auto result = SolveNnls(p);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->coefficients.size(), static_cast<size_t>(cols));
      for (double b : result->coefficients) {
        EXPECT_EQ(DoubleBits(b), 0u) << cols << " columns, target " << zero;
      }
      EXPECT_EQ(DoubleBits(result->residual_norm), 0u);
    }
  }
}

// ---------- Zipf ----------

TEST(Zipf, UniformWhenZIsZero) {
  ZipfDistribution z(10, 0.0);
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(z.Pmf(k), 0.1, 1e-12);
  }
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution z(100, 1.0);
  double sum = 0.0;
  for (uint64_t k = 0; k < 100; ++k) sum += z.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SkewConcentratesMassOnSmallRanks) {
  ZipfDistribution z(1000, 1.0);
  EXPECT_GT(z.Pmf(0), 10.0 * z.Pmf(99));
  Rng rng(3);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (z.Sample(&rng) < 10) ++head;
  }
  // Under uniform the head would get ~1%; under z=1 it gets far more.
  EXPECT_GT(static_cast<double>(head) / n, 0.2);
}

TEST(Zipf, SamplesMatchPmf) {
  ZipfDistribution z(5, 1.0);
  Rng rng(4);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(z.Sample(&rng))];
  for (uint64_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.Pmf(k), 0.01);
  }
}

}  // namespace
}  // namespace uqp
