// Unit tests for the numerics substrate: dense LU, sparse CG,
// tridiagonal, quadrature, roots, least squares, interpolation, statistics,
// dense nonsymmetric eigenvalues.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "numerics/eig.hpp"
#include "numerics/interp.hpp"
#include "numerics/leastsq.hpp"
#include "numerics/matrix.hpp"
#include "numerics/ordering.hpp"
#include "numerics/quadrature.hpp"
#include "numerics/rng.hpp"
#include "numerics/roots.hpp"
#include "numerics/solvers.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"
#include "numerics/stats.hpp"
#include "numerics/svd.hpp"

namespace cn = cnti::numerics;

namespace {

TEST(Matrix, MultiplyIdentity) {
  cn::MatrixD a(3, 3);
  int v = 1;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = v++;
  const cn::MatrixD i3 = cn::MatrixD::identity(3);
  const cn::MatrixD b = a * i3;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(b(i, j), a(i, j));
}

TEST(Matrix, LuSolvesRandomSystem) {
  cn::Rng rng(42);
  const std::size_t n = 20;
  cn::MatrixD a(n, n);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = rng.uniform(-2, 2);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += 5.0;  // diagonally dominant -> well conditioned
  }
  const std::vector<double> b = a * x_true;
  const std::vector<double> x = cn::solve_dense(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Matrix, LuDeterminantMatchesKnown) {
  cn::MatrixD a(2, 2);
  a(0, 0) = 3;  a(0, 1) = 1;
  a(1, 0) = 4;  a(1, 1) = 2;
  cn::LuFactorization<double> lu(a);
  EXPECT_NEAR(lu.determinant(), 2.0, 1e-12);
}

TEST(Matrix, LuThrowsOnSingular) {
  cn::MatrixD a(2, 2);
  a(0, 0) = 1;  a(0, 1) = 2;
  a(1, 0) = 2;  a(1, 1) = 4;
  EXPECT_THROW(cn::LuFactorization<double>{a}, cnti::NumericalError);
}

TEST(Matrix, ComplexInverseRoundTrip) {
  using C = std::complex<double>;
  cn::Rng rng(7);
  const std::size_t n = 12;
  cn::MatrixC a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = C(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
    a(i, i) += C(4.0, 1.0);
  }
  const cn::MatrixC ainv = cn::inverse(a);
  const cn::MatrixC prod = a * ainv;
  const cn::MatrixC err = prod - cn::MatrixC::identity(n);
  EXPECT_LT(err.norm(), 1e-10);
}

TEST(Matrix, AdjointConjugates) {
  using C = std::complex<double>;
  cn::MatrixC a(2, 2);
  a(0, 1) = C(1.0, 2.0);
  const cn::MatrixC ad = a.adjoint();
  EXPECT_DOUBLE_EQ(ad(1, 0).real(), 1.0);
  EXPECT_DOUBLE_EQ(ad(1, 0).imag(), -2.0);
}

TEST(Sparse, BuilderSumsDuplicates) {
  cn::SparseBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 1, 1.0);
  const cn::SparseMatrix m = b.build();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_EQ(m.nnz(), 2u);
}

cn::SparseMatrix laplacian_1d(std::size_t n) {
  cn::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

TEST(Solvers, CgSolvesLaplacian) {
  const std::size_t n = 100;
  const auto a = laplacian_1d(n);
  cn::Rng rng(3);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  const auto b = a * x_true;
  const auto res = cn::conjugate_gradient(a, b, {.max_iterations = 2000,
                                                 .tolerance = 1e-12});
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(res.x[i], x_true[i], 1e-7);
}

TEST(Solvers, CgZeroRhsGivesZero) {
  const auto a = laplacian_1d(10);
  const auto res = cn::conjugate_gradient(a, std::vector<double>(10, 0.0));
  EXPECT_TRUE(res.converged);
  for (double v : res.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Solvers, TridiagonalMatchesDense) {
  const std::size_t n = 8;
  std::vector<double> sub(n - 1, -1.0), diag(n, 3.0), sup(n - 1, -0.5);
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = static_cast<double>(i + 1);
  const auto x = cn::solve_tridiagonal(sub, diag, sup, rhs);

  cn::MatrixD a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 3.0;
    if (i > 0) a(i, i - 1) = -1.0;
    if (i + 1 < n) a(i, i + 1) = -0.5;
  }
  const auto x_dense = cn::solve_dense(a, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_dense[i], 1e-12);
}

TEST(Solvers, TridiagonalZeroFinalPivotThrows) {
  // Regression: the last pivot b[n-1] used to be divided without the
  // zero-pivot check applied to every earlier pivot. This system is
  // singular exactly there: elimination turns the final diagonal into
  // 1 - (1*1)/1 = 0.
  std::vector<double> sub = {1.0};
  std::vector<double> diag = {1.0, 1.0};
  std::vector<double> sup = {1.0};
  std::vector<double> rhs = {1.0, 2.0};
  EXPECT_THROW(cn::solve_tridiagonal(sub, diag, sup, rhs),
               cnti::NumericalError);

  // 1x1 degenerate case goes through the same final-pivot check.
  EXPECT_THROW(cn::solve_tridiagonal({}, {0.0}, {}, {1.0}),
               cnti::NumericalError);
}

TEST(Solvers, CgRejectsMismatchedSizes) {
  // A wrong-sized b or non-empty x0 must throw, never read out of bounds.
  const auto a = laplacian_1d(8);
  EXPECT_THROW(cn::conjugate_gradient(a, std::vector<double>(7, 1.0)),
               cnti::PreconditionError);
  EXPECT_THROW(cn::conjugate_gradient(a, std::vector<double>(8, 1.0), {},
                                      std::vector<double>(5, 0.0)),
               cnti::PreconditionError);
}

TEST(Solvers, CgExactSeedConvergesInZeroIterations) {
  // Regression: a seed already at the solution made the very first p'Ap
  // breakdown check trip, reporting converged=false with residual 0.0.
  const std::size_t n = 40;
  const auto a = laplacian_1d(n);
  cn::Rng rng(7);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  const auto b = a * x_true;
  const auto res =
      cn::conjugate_gradient(a, b, {.tolerance = 1e-10}, x_true);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_LT(res.residual, 1e-10);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(res.x[i], x_true[i]);
}

// --- Fill-reducing ordering ----------------------------------------------

/// Arrow matrix: dense first row/column plus the diagonal. Eliminating the
/// hub first fills the factor completely; any minimum-degree method must
/// defer it to the end, keeping the factor O(n).
cn::SparseMatrix arrow_matrix(std::size_t n) {
  cn::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) b.add(i, i, 4.0);
  for (std::size_t i = 1; i < n; ++i) {
    b.add(0, i, -1.0);
    b.add(i, 0, -1.0);
  }
  return b.build();
}

TEST(Ordering, AmdReturnsValidPermutation) {
  const auto a = laplacian_1d(50);
  const auto perm = cn::amd_ordering(a);
  ASSERT_EQ(perm.size(), 50u);
  std::vector<char> seen(50, 0);
  for (const std::size_t p : perm) {
    ASSERT_LT(p, 50u);
    EXPECT_FALSE(seen[p]) << "index " << p << " appears twice";
    seen[p] = 1;
  }
}

TEST(Ordering, AmdDefersArrowHubToEnd) {
  const auto a = arrow_matrix(30);
  const auto perm = cn::amd_ordering(a);
  ASSERT_EQ(perm.size(), 30u);
  // Every leaf has degree 1, the hub degree n-1: the hub must wait until
  // its degree has decayed. Once a single leaf remains both have degree 1
  // and the lowest-index tie-break may pick the hub first, so "deferred"
  // means one of the final two positions.
  const auto hub = std::find(perm.begin(), perm.end(), 0u) - perm.begin();
  EXPECT_GE(hub, 28);
}

TEST(Ordering, AmdOrderingReducesArrowFill) {
  const std::size_t n = 64;
  const auto a = arrow_matrix(n);
  cn::SparseLu natural;
  natural.factorize(a);
  cn::SparseLu amd;
  amd.set_column_ordering(cn::amd_ordering(a));
  amd.factorize(a);
  const std::size_t nnz_natural = natural.nnz_l() + natural.nnz_u();
  const std::size_t nnz_amd = amd.nnz_l() + amd.nnz_u();
  // Natural order eliminates the hub first -> dense factor, O(n^2)
  // entries; AMD keeps it O(n).
  EXPECT_LT(nnz_amd * 4, nnz_natural);
  EXPECT_LE(nnz_amd, 4 * n);
}

TEST(Ordering, OrderedLuMatchesDenseSolve) {
  const std::size_t n = 40;
  cn::Rng rng(11);
  // Random sparse diagonally-dominant system with symmetric pattern.
  cn::SparseBuilder b(n, n);
  cn::MatrixD dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 8.0);
    dense(i, i) += 8.0;
  }
  for (int k = 0; k < 120; ++k) {
    const auto i =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    if (i == j) continue;
    const double v = rng.uniform(-1, 1);
    b.add(i, j, v);
    b.add(j, i, 0.0);  // keep the pattern symmetric, values free
    dense(i, j) += v;
  }
  const auto a = b.build();
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rng.uniform(-1, 1);

  cn::SparseLu lu;
  lu.set_column_ordering(cn::amd_ordering(a));
  lu.factorize(a);
  const auto x = lu.solve(rhs);
  const auto x_ref = cn::solve_dense(dense, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-10);
}

TEST(Ordering, OrderedLuReusesSymbolicAcrossRefactorize) {
  const auto a = arrow_matrix(24);
  cn::SparseLu lu;
  lu.set_column_ordering(cn::amd_ordering(a));
  lu.factorize(a);
  EXPECT_FALSE(lu.reused_symbolic());

  // Same pattern, same ordering: the symbolic analysis must be replayed,
  // exactly as on the unordered path.
  lu.factorize(a);
  EXPECT_TRUE(lu.reused_symbolic());

  // Re-setting the identical ordering must not invalidate the analysis...
  lu.set_column_ordering(cn::amd_ordering(a));
  lu.factorize(a);
  EXPECT_TRUE(lu.reused_symbolic());

  // ...but a different ordering must.
  std::vector<std::size_t> natural(24);
  for (std::size_t i = 0; i < 24; ++i) natural[i] = i;
  lu.set_column_ordering(natural);
  lu.factorize(a);
  EXPECT_FALSE(lu.reused_symbolic());

  const std::vector<double> rhs(24, 1.0);
  const auto x = lu.solve(rhs);
  std::vector<double> ax(24);
  a.multiply(x, ax);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-10);
}

TEST(Ordering, InvalidPermutationIsRejected) {
  const auto a = laplacian_1d(6);
  cn::SparseLu lu;
  lu.set_column_ordering({0, 0, 1, 2, 3, 4});  // duplicate
  EXPECT_THROW(lu.factorize(a), cnti::PreconditionError);
  cn::SparseLu lu2;
  lu2.set_column_ordering({0, 1, 2});  // wrong length
  EXPECT_THROW(lu2.factorize(a), cnti::PreconditionError);
}

TEST(Quadrature, AdaptiveSimpsonPolynomial) {
  const auto f = [](double x) { return 3.0 * x * x; };
  EXPECT_NEAR(cn::integrate_adaptive(f, 0.0, 2.0), 8.0, 1e-10);
}

TEST(Quadrature, AdaptiveSimpsonGaussian) {
  const auto f = [](double x) { return std::exp(-x * x); };
  EXPECT_NEAR(cn::integrate_adaptive(f, -6.0, 6.0, 1e-12),
              std::sqrt(M_PI), 1e-9);
}

TEST(Quadrature, Gauss16Exact) {
  const auto f = [](double x) { return x * x * x + 2.0 * x; };
  EXPECT_NEAR(cn::integrate_gauss16(f, -1.0, 3.0), 28.0, 1e-10);
}

TEST(Quadrature, TrapezoidTabulated) {
  std::vector<double> y = {0.0, 1.0, 2.0, 3.0};
  EXPECT_NEAR(cn::integrate_trapezoid(y, 1.0), 4.5, 1e-14);
}

TEST(Roots, BrentFindsCosRoot) {
  const double r = cn::find_root_brent([](double x) { return std::cos(x); },
                                       1.0, 2.0);
  EXPECT_NEAR(r, M_PI / 2.0, 1e-10);
}

TEST(Roots, BrentRequiresBracket) {
  EXPECT_THROW(cn::find_root_brent([](double x) { return x * x + 1.0; },
                                   -1.0, 1.0),
               cnti::PreconditionError);
}

TEST(Roots, AutoBracketExpands) {
  const double r = cn::find_root_auto_bracket(
      [](double x) { return x - 100.0; }, 0.0, 1.0);
  EXPECT_NEAR(r, 100.0, 1e-8);
}

TEST(LeastSq, ExactLineRecovered) {
  std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double v : x) y.push_back(2.5 + 1.5 * v);
  const auto fit = cn::fit_line(x, y);
  EXPECT_NEAR(fit.intercept, 2.5, 1e-12);
  EXPECT_NEAR(fit.slope, 1.5, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LeastSq, NoisyLineWithinErrorBars) {
  cn::Rng rng(11);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    const double xi = i * 0.1;
    x.push_back(xi);
    y.push_back(1.0 + 0.5 * xi + rng.normal(0.0, 0.05));
  }
  const auto fit = cn::fit_line(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 4.0 * fit.slope_stderr + 1e-3);
  EXPECT_NEAR(fit.intercept, 1.0, 4.0 * fit.intercept_stderr + 1e-2);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LeastSq, WeightedFitUsesWeights) {
  // Two clusters; the heavily weighted one should dominate the intercept.
  std::vector<double> x = {0, 0, 1, 1};
  std::vector<double> y = {0.0, 10.0, 1.0, 11.0};
  std::vector<double> w = {100.0, 0.01, 100.0, 0.01};
  const auto fit = cn::fit_line_weighted(x, y, w);
  EXPECT_NEAR(fit.intercept, 0.0, 0.05);
  EXPECT_NEAR(fit.slope, 1.0, 0.05);
}

TEST(LeastSq, LinearModelQuadratic) {
  // Fit y = b0 + b1 x + b2 x^2 exactly.
  std::vector<double> xs = {-2, -1, 0, 1, 2, 3};
  cn::MatrixD a(xs.size(), 3);
  std::vector<double> y(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = xs[i];
    a(i, 2) = xs[i] * xs[i];
    y[i] = 4.0 - 2.0 * xs[i] + 0.5 * xs[i] * xs[i];
  }
  const auto beta = cn::fit_linear_model(a, y);
  EXPECT_NEAR(beta[0], 4.0, 1e-10);
  EXPECT_NEAR(beta[1], -2.0, 1e-10);
  EXPECT_NEAR(beta[2], 0.5, 1e-10);
}

TEST(Interp, LinearInterpolationAndClamp) {
  cn::LinearInterpolator f({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.5), 5.0);
  EXPECT_DOUBLE_EQ(f(-1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(f(5.0), 0.0);    // clamped
}

TEST(Interp, FirstCrossingInterpolates) {
  std::vector<double> t = {0, 1, 2, 3};
  std::vector<double> y = {0, 0, 1, 1};
  EXPECT_NEAR(cn::first_crossing_time(t, y, 0.5, /*rising=*/true), 1.5,
              1e-12);
  EXPECT_LT(cn::first_crossing_time(t, y, 0.5, /*rising=*/false), 0.0);
}

TEST(Stats, SummaryKnownSample) {
  const auto s = cn::summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, HistogramCountsAll) {
  cn::Rng rng(5);
  std::vector<double> sample;
  for (int i = 0; i < 1000; ++i) sample.push_back(rng.uniform(0, 1));
  const auto h = cn::histogram(sample, 0.0, 1.0, 10);
  std::size_t total = 0;
  for (auto c : h.counts) total += c;
  EXPECT_EQ(total, sample.size());
}

TEST(Rng, DeterministicBySeed) {
  cn::Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  cn::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal_truncated(5.0, 3.0, 4.0, 6.0);
    EXPECT_GE(v, 4.0);
    EXPECT_LE(v, 6.0);
  }
}

TEST(Rng, TruncatedNormalThrowsWhenRejectionIsExhausted) {
  // A [50, 51] window on a standard normal has ~1e-545 acceptance
  // probability. The old behavior silently returned the clamped mean
  // (50.0), biasing every downstream statistic; now it must report.
  cn::Rng rng(9);
  EXPECT_THROW(rng.normal_truncated(0.0, 1.0, 50.0, 51.0),
               cnti::NumericalError);
}

TEST(Rng, SplitMix64KnownAnswerVector) {
  // Reference outputs for splitmix64 from seed 0 (Vigna's test vector).
  std::uint64_t state = 0;
  EXPECT_EQ(cn::detail::splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(cn::detail::splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(cn::detail::splitmix64(state), 0x06c45d188009454fULL);
}

TEST(Rng, ForkKeepsTheRootSeed) {
  cn::Rng root(321);
  EXPECT_EQ(root.seed(), 321u);
  cn::Rng child = root.fork(2);
  EXPECT_NE(child.seed(), root.seed());
  // fork is deterministic and side-effect free on the parent.
  cn::Rng again = root.fork(2);
  EXPECT_EQ(child.seed(), again.seed());
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child.normal(), again.normal());
  }
}

TEST(Rng, ZeroSigmaIsAPointMassThatKeepsTheStreamInStep) {
  // sigma = 0 returns the mean (the median for the lognormal) and still
  // consumes a sigma > 0 call's engine draws, so later draws of the same
  // stream do not depend on which parameters were zero.
  cn::Rng a(77), b(77);
  EXPECT_EQ(a.normal(2.5, 0.0), 2.5);
  (void)b.normal(2.5, 1.0);
  EXPECT_EQ(a.uniform(), b.uniform());
  EXPECT_EQ(a.lognormal_median(3.0, 0.0), std::exp(std::log(3.0)));
  (void)b.lognormal_median(3.0, 0.4);
  EXPECT_EQ(a.uniform(), b.uniform());
  EXPECT_EQ(a.normal_truncated(-1.0, 0.0, -2.0, 0.0), -1.0);
  (void)b.normal_truncated(-1.0, 0.5, -9.0, 9.0);
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, RejectsNegativeOrNonFiniteSigmaByName) {
  cn::Rng rng(1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, nan, inf}) {
    try {
      (void)rng.normal(0.0, bad);
      ADD_FAILURE() << "normal accepted sigma " << bad;
    } catch (const cnti::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("sigma"), std::string::npos);
    }
    try {
      (void)rng.lognormal_median(1.0, bad);
      ADD_FAILURE() << "lognormal_median accepted sigma_log " << bad;
    } catch (const cnti::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("sigma_log"), std::string::npos);
    }
  }
}

TEST(Rng, LognormalMedianApproximatelyCorrect) {
  cn::Rng rng(13);
  std::vector<double> s;
  for (int i = 0; i < 20000; ++i) s.push_back(rng.lognormal_median(7.5, 0.2));
  const auto sum = cn::summarize(s);
  EXPECT_NEAR(sum.median, 7.5, 0.1);
}

// ---------------------------------------------------------------------------
// Property-style regression tests: random systems drawn via cn::Rng, with
// invariants (residual bounds, symmetry, consistency across solvers) asserted
// rather than single hand-picked answers.
// ---------------------------------------------------------------------------

// Random symmetric diagonally dominant matrix with positive diagonal -> SPD.
cn::SparseMatrix random_spd(std::size_t n, cn::Rng& rng) {
  std::vector<std::vector<std::pair<std::size_t, double>>> off(n);
  std::vector<double> row_abs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!rng.bernoulli(std::min(1.0, 6.0 / static_cast<double>(n)))) {
        continue;
      }
      const double v = rng.uniform(-1.0, 1.0);
      off[i].push_back({j, v});
      row_abs[i] += std::abs(v);
      row_abs[j] += std::abs(v);
    }
  }
  cn::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, row_abs[i] + rng.uniform(0.5, 2.0));
    for (const auto& [j, v] : off[i]) {
      b.add(i, j, v);
      b.add(j, i, v);
    }
  }
  return b.build();
}

TEST(SolverProperties, CgResidualBoundOnRandomSpdSystems) {
  cn::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 30 + 10 * static_cast<std::size_t>(trial);
    const auto a = random_spd(n, rng);
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-3, 3);
    const auto b = a * x_true;
    const auto res = cn::conjugate_gradient(
        a, b, {.max_iterations = 4 * n, .tolerance = 1e-11});
    ASSERT_TRUE(res.converged) << "trial " << trial << " n=" << n;
    // The reported residual must match a recomputation from scratch.
    const auto ax = a * res.x;
    double rnorm = 0.0, bnorm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rnorm += (b[i] - ax[i]) * (b[i] - ax[i]);
      bnorm += b[i] * b[i];
    }
    const double rel = std::sqrt(rnorm) / std::sqrt(bnorm);
    EXPECT_LT(rel, 1e-10) << "trial " << trial;
    EXPECT_NEAR(rel, res.residual, 1e-10) << "trial " << trial;
  }
}

TEST(SolverProperties, CgWarmStartNeverNeedsMoreWorkFromSolution) {
  cn::Rng rng(99);
  const auto a = random_spd(200, rng);
  std::vector<double> x_true(200);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  const auto b = a * x_true;
  const auto cold = cn::conjugate_gradient(a, b, {.tolerance = 1e-11});
  ASSERT_TRUE(cold.converged);
  // Re-solving seeded with the converged answer must converge immediately.
  const auto warm =
      cn::conjugate_gradient(a, b, {.tolerance = 1e-10}, cold.x);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2u);
}

TEST(SolverProperties, SparseMatvecMatchesDense) {
  cn::Rng rng(777);
  const std::size_t n = 40;
  const auto s = random_spd(n, rng);
  cn::MatrixD d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = s.at(i, j);
  }
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const auto ys = s * x;
  const auto yd = d * x;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SolverProperties, RandomSpdIsSymmetricWithPositiveDiagonal) {
  cn::Rng rng(31337);
  const auto a = random_spd(60, rng);
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_GT(a.at(i, i), 0.0);
    for (std::size_t j = i + 1; j < 60; ++j) {
      EXPECT_DOUBLE_EQ(a.at(i, j), a.at(j, i));
    }
  }
}

TEST(SolverProperties, CgAndDenseLuAgreeOnSameSystem) {
  cn::Rng rng(424242);
  const std::size_t n = 35;
  const auto a = random_spd(n, rng);
  cn::MatrixD d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = a.at(i, j);
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto cg = cn::conjugate_gradient(a, b, {.tolerance = 1e-12});
  ASSERT_TRUE(cg.converged);
  const auto lu = cn::solve_dense(d, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(cg.x[i], lu[i], 1e-8);
}

TEST(SolverProperties, TridiagonalMatchesCgOnSpdBand) {
  cn::Rng rng(8);
  const std::size_t n = 64;
  std::vector<double> sub(n - 1), diag(n), sup(n - 1), rhs(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sub[i] = rng.uniform(-1.0, -0.2);
    sup[i] = sub[i];  // symmetric band
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double neighbors = (i > 0 ? std::abs(sub[i - 1]) : 0.0) +
                             (i + 1 < n ? std::abs(sup[i]) : 0.0);
    diag[i] = neighbors + rng.uniform(0.5, 1.5);
    rhs[i] = rng.uniform(-1, 1);
  }
  const auto x_thomas = cn::solve_tridiagonal(sub, diag, sup, rhs);
  cn::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, diag[i]);
    if (i > 0) b.add(i, i - 1, sub[i - 1]);
    if (i + 1 < n) b.add(i, i + 1, sup[i]);
  }
  const auto cg = cn::conjugate_gradient(b.build(), rhs, {.tolerance = 1e-13});
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_thomas[i], cg.x[i], 1e-9);
}

// --- Hessenberg-QR eigenvalues -------------------------------------------

TEST(Eigenvalues, DiagonalAndTriangularAreRead) {
  cn::MatrixD a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 7.0;
  a(0, 2) = 100.0;  // strictly upper entries must not matter
  auto e = cn::eigenvalues(a);
  std::sort(e.begin(), e.end(),
            [](auto x, auto y) { return x.real() < y.real(); });
  ASSERT_EQ(e.size(), 3u);
  EXPECT_NEAR(e[0].real(), -1.0, 1e-12);
  EXPECT_NEAR(e[1].real(), 3.0, 1e-12);
  EXPECT_NEAR(e[2].real(), 7.0, 1e-12);
  for (const auto& z : e) EXPECT_NEAR(z.imag(), 0.0, 1e-12);
}

TEST(Eigenvalues, CompanionMatrixRecoversPolynomialRoots) {
  // x^4 - 10x^3 + 35x^2 - 50x + 24 = (x-1)(x-2)(x-3)(x-4).
  cn::MatrixD c(4, 4);
  c(0, 0) = 10.0;
  c(0, 1) = -35.0;
  c(0, 2) = 50.0;
  c(0, 3) = -24.0;
  c(1, 0) = c(2, 1) = c(3, 2) = 1.0;
  auto e = cn::eigenvalues(c);
  std::sort(e.begin(), e.end(),
            [](auto x, auto y) { return x.real() < y.real(); });
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(e[static_cast<std::size_t>(k)].real(), k + 1.0, 1e-9);
    EXPECT_NEAR(e[static_cast<std::size_t>(k)].imag(), 0.0, 1e-9);
  }
}

TEST(Eigenvalues, RotationScalingGivesConjugatePair) {
  // r [cos t, -sin t; sin t, cos t] has eigenvalues r e^{+-it}.
  const double r = 2.5, t = 0.7;
  cn::MatrixD a(2, 2);
  a(0, 0) = a(1, 1) = r * std::cos(t);
  a(0, 1) = -r * std::sin(t);
  a(1, 0) = r * std::sin(t);
  auto e = cn::eigenvalues(a);
  ASSERT_EQ(e.size(), 2u);
  std::sort(e.begin(), e.end(),
            [](auto x, auto y) { return x.imag() < y.imag(); });
  EXPECT_NEAR(e[0].real(), r * std::cos(t), 1e-12);
  EXPECT_NEAR(e[0].imag(), -r * std::sin(t), 1e-12);
  EXPECT_NEAR(e[1].imag(), r * std::sin(t), 1e-12);
}

TEST(Eigenvalues, TraceAndConjugacyOnRandomMatrix) {
  cn::Rng rng(7);
  const std::size_t n = 40;
  cn::MatrixD a(n, n);
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    trace += a(i, i);
  }
  const auto e = cn::eigenvalues(a);
  ASSERT_EQ(e.size(), n);
  std::complex<double> sum(0.0, 0.0);
  for (const auto& z : e) sum += z;
  // Eigenvalue sum equals the trace; imaginary parts cancel in pairs.
  EXPECT_NEAR(sum.real(), trace, 1e-8 * n);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-8 * n);
}

TEST(Eigenvalues, SymmetricMatrixStaysReal) {
  cn::Rng rng(11);
  const std::size_t n = 25;
  cn::MatrixD a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      a(i, j) = a(j, i) = rng.uniform(-1, 1);
    }
  }
  for (const auto& z : cn::eigenvalues(a)) {
    EXPECT_NEAR(z.imag(), 0.0, 1e-7);
  }
}

TEST(Eigenvalues, RejectsNonSquare) {
  EXPECT_THROW(cn::eigenvalues(cn::MatrixD(2, 3)), cnti::PreconditionError);
  EXPECT_TRUE(cn::eigenvalues(cn::MatrixD()).empty());
}

// --- One-sided Jacobi SVD ---------------------------------------------------

/// max |a - u diag(s) v^T|, and the orthonormality defects of u and v.
struct SvdCheck {
  double reconstruction = 0.0, u_ortho = 0.0, v_ortho = 0.0;
};

SvdCheck check_svd(const cn::MatrixD& a, const cn::SvdResult& r) {
  SvdCheck c;
  const std::size_t k = r.values.size();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double s = 0.0;
      for (std::size_t t = 0; t < k; ++t) s += r.u(i, t) * r.values[t] * r.v(j, t);
      c.reconstruction = std::max(c.reconstruction, std::abs(s - a(i, j)));
    }
  }
  const auto ortho = [&](const cn::MatrixD& m) {
    double worst = 0.0;
    for (std::size_t x = 0; x < k; ++x) {
      for (std::size_t y = 0; y < k; ++y) {
        double d = 0.0;
        for (std::size_t i = 0; i < m.rows(); ++i) d += m(i, x) * m(i, y);
        worst = std::max(worst, std::abs(d - (x == y ? 1.0 : 0.0)));
      }
    }
    return worst;
  };
  c.u_ortho = ortho(r.u);
  c.v_ortho = ortho(r.v);
  return c;
}

TEST(Svd, TallAndWideRandomMatricesFactorExactly) {
  cn::Rng rng(19);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{9, 5}, {5, 9}, {12, 12}}) {
    cn::MatrixD a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.uniform(-1, 1);
    }
    const cn::SvdResult r = cn::svd(a);
    const std::size_t k = std::min(rows, cols);
    ASSERT_EQ(r.values.size(), k);
    ASSERT_EQ(r.u.rows(), rows);
    ASSERT_EQ(r.u.cols(), k);
    ASSERT_EQ(r.v.rows(), cols);
    ASSERT_EQ(r.v.cols(), k);
    for (std::size_t t = 1; t < k; ++t) EXPECT_GE(r.values[t - 1], r.values[t]);
    const SvdCheck c = check_svd(a, r);
    EXPECT_LT(c.reconstruction, 1e-13) << rows << "x" << cols;
    EXPECT_LT(c.u_ortho, 1e-13);
    EXPECT_LT(c.v_ortho, 1e-13);
  }
}

TEST(Svd, SmallSingularValuesKeepTheirRelativeAccuracy) {
  // a = Q1 diag(1, 1e-6, 1e-12) Q2^T with exact rotations: a Gram-matrix
  // route would lose the 1e-12 value to rounding (1e-24 vs 1e-16).
  const double c1 = 0.6, s1 = 0.8, c2 = 0.28, s2 = 0.96;
  const double sv[3] = {1.0, 1e-6, 1e-12};
  cn::MatrixD q1{3, 3}, q2{3, 3}, a{3, 3};
  q1(0, 0) = c1; q1(0, 1) = -s1; q1(1, 0) = s1; q1(1, 1) = c1; q1(2, 2) = 1.0;
  q2(0, 0) = 1.0; q2(1, 1) = c2; q2(1, 2) = -s2; q2(2, 1) = s2; q2(2, 2) = c2;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t t = 0; t < 3; ++t) a(i, j) += q1(i, t) * sv[t] * q2(j, t);
    }
  }
  const cn::SvdResult r = cn::svd(a);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_NEAR(r.values[t], sv[t], 1e-9 * sv[t]) << t;
  }
}

TEST(Svd, WideRankDeficientInputKeepsAFullLeftBasis) {
  // Rows 0 and 2 coincide: one zero singular value. The wide case's left
  // factor comes from the accumulated rotations and stays orthonormal.
  cn::MatrixD a(3, 6);
  for (std::size_t j = 0; j < 6; ++j) {
    a(0, j) = a(2, j) = static_cast<double>(j) - 2.5;
    a(1, j) = (j % 2 == 0) ? 1.0 : -0.5;
  }
  const cn::SvdResult r = cn::svd(a);
  EXPECT_NEAR(r.values[2], 0.0, 1e-14);
  const SvdCheck c = check_svd(a, r);
  EXPECT_LT(c.reconstruction, 1e-13);
  EXPECT_LT(c.u_ortho, 1e-13);
  EXPECT_TRUE(cn::svd(cn::MatrixD()).values.empty());
}

}  // namespace
