// Dense singular value decomposition for small matrices by one-sided
// (Hestenes) Jacobi: plane rotations applied to the columns of A until
// every pair is orthogonal to working precision, so A W = U diag(s) with
// W the accumulated rotations. It never forms A^T A, so small singular
// values keep their relative accuracy instead of being squared into the
// rounding noise; the ROM layer uses it to compress merged projection
// bases (rom/parametrized_rom.cpp), where the trailing values decide the
// reduced order. Cost per sweep is ~cols^2 * rows; a few sweeps suffice at
// the sizes here (~100 x 250).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "numerics/matrix.hpp"

namespace cnti::numerics {

/// Thin SVD a = u diag(values) v^T of a rows x cols matrix, with
/// k = min(rows, cols) singular values in descending order (ties keep
/// column order). The columns of u and v are orthonormal, except that a
/// zero singular value of a tall (rows >= cols) input leaves its u column
/// zero — the wide case, whose u comes from the accumulated rotations, is
/// always a full orthonormal basis.
struct SvdResult {
  std::vector<double> values;
  MatrixD u;  ///< rows x k.
  MatrixD v;  ///< cols x k.
};

namespace svd_detail {

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// (x, y) <- (c x - s y, s x + c y).
inline void rotate(std::vector<double>& x, std::vector<double>& y, double c,
                   double s) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    x[i] = c * xi - s * y[i];
    y[i] = s * xi + c * y[i];
  }
}

}  // namespace svd_detail

inline SvdResult svd(const MatrixD& a) {
  using svd_detail::dot;
  // Work on the tall orientation: the columns of t = (wide ? a^T : a).
  const bool wide = a.rows() < a.cols();
  const std::size_t m = wide ? a.cols() : a.rows();
  const std::size_t n = wide ? a.rows() : a.cols();
  std::vector<std::vector<double>> cols(n, std::vector<double>(m));
  std::vector<std::vector<double>> rot(n, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) cols[j][i] = wide ? a(j, i) : a(i, j);
    rot[j][j] = 1.0;
  }

  constexpr int kMaxSweeps = 60;
  // A pair counts as orthogonal once its cosine is below the rounding
  // noise of the inner product itself (~rows * eps): a stricter threshold
  // can rotate forever on columns of very different norms.
  const double tol =
      static_cast<double>(std::max<std::size_t>(m, 1)) *
      std::numeric_limits<double>::epsilon();
  bool converged = false;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t j = 0; j + 1 < n; ++j) {
      for (std::size_t k = j + 1; k < n; ++k) {
        const double gamma = dot(cols[j], cols[k]);
        if (gamma == 0.0) continue;
        const double alpha = dot(cols[j], cols[j]);
        const double beta = dot(cols[k], cols[k]);
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta)) continue;
        converged = false;
        // Rotation that zeroes the (j, k) inner product (Rutishauser's
        // stable tangent; the large-zeta branch avoids squaring zeta).
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t =
            std::abs(zeta) > 1e150
                ? 0.5 / zeta
                : std::copysign(1.0, zeta) /
                      (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        svd_detail::rotate(cols[j], cols[k], c, s);
        svd_detail::rotate(rot[j], rot[k], c, s);
      }
    }
  }
  if (!converged) {
    throw NumericalError("svd: Jacobi sweeps did not converge");
  }

  std::vector<double> sigma(n);
  for (std::size_t j = 0; j < n; ++j) sigma[j] = std::sqrt(dot(cols[j], cols[j]));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return sigma[x] > sigma[y];
  });

  // t = cols-normalized * diag(sigma) * rot^T; for a wide input a = t^T,
  // so the roles of the two factors swap.
  SvdResult out;
  out.values.resize(n);
  MatrixD normalized(m, n), rotation(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = order[k];
    out.values[k] = sigma[j];
    for (std::size_t i = 0; i < m; ++i) {
      normalized(i, k) = sigma[j] > 0.0 ? cols[j][i] / sigma[j] : 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) rotation(i, k) = rot[j][i];
  }
  out.u = wide ? std::move(rotation) : std::move(normalized);
  out.v = wide ? std::move(normalized) : std::move(rotation);
  return out;
}

}  // namespace cnti::numerics
