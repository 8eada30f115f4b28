#include "rom/prima.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"

namespace cnti::rom {

namespace {

using detail::dot;
using detail::norm2;
using numerics::MatrixD;
using numerics::SparseBuilder;
using numerics::SparseLu;
using numerics::SparseMatrix;

/// K = G + s0 C over the union pattern (built once; the factorization is
/// reused for every Arnoldi solve).
SparseMatrix shifted_pencil(const SparseMatrix& g, const SparseMatrix& c,
                            double s0) {
  const std::size_t n = g.rows();
  SparseBuilder k(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t t = g.row_ptr()[r]; t < g.row_ptr()[r + 1]; ++t) {
      k.add(r, g.col_indices()[t], g.values()[t]);
    }
  }
  if (s0 != 0.0) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t t = c.row_ptr()[r]; t < c.row_ptr()[r + 1]; ++t) {
        k.add(r, c.col_indices()[t], s0 * c.values()[t]);
      }
    }
  }
  return k.build();
}

}  // namespace

std::vector<std::vector<double>> prima_basis(const StateSpace& ss,
                                             const PrimaOptions& options) {
  CNTI_EXPECTS(options.order >= 1, "prima: order must be >= 1");
  CNTI_EXPECTS(options.expansion_rad_per_s >= 0,
               "prima: expansion point must be >= 0");
  CNTI_EXPECTS(ss.size > 0 && ss.inputs() > 0,
               "prima: state space has no unknowns or no inputs");
  const std::size_t n = static_cast<std::size_t>(ss.size);
  const int m = ss.inputs();
  const int q_target =
      std::min(options.order, ss.size);  // cannot exceed the full order

  static const obs::Counter reductions = obs::counter("cnti.rom.reductions");
  static const obs::Counter arnoldi_vectors =
      obs::counter("cnti.rom.arnoldi_vectors");
  static const obs::Counter deflations = obs::counter("cnti.rom.deflations");
  static const obs::Histogram reduce_hist =
      obs::histogram("cnti.rom.reduce_ns");
  reductions.add();
  const obs::ObsSpan reduce_span("prima.reduce", "rom", reduce_hist);

  SparseLu lu;
  lu.factorize(shifted_pencil(ss.g, ss.c, options.expansion_rad_per_s));

  // Modified Gram-Schmidt with one reorthogonalization pass; returns false
  // (deflation) when the direction is linearly dependent on the basis.
  std::vector<std::vector<double>> basis;
  const auto orthonormalize_into_basis = [&](std::vector<double> w) {
    arnoldi_vectors.add();
    const double initial = norm2(w);
    if (initial == 0.0) {
      deflations.add();
      return false;
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& v : basis) {
        const double h = dot(v, w);
        if (h == 0.0) continue;
        for (std::size_t i = 0; i < n; ++i) w[i] -= h * v[i];
      }
    }
    const double remaining = norm2(w);
    if (remaining <= options.deflation_tol * initial) {
      deflations.add();
      return false;
    }
    for (double& x : w) x /= remaining;
    basis.push_back(std::move(w));
    return true;
  };

  // Block 0: K^{-1} B. Later blocks: K^{-1} C v for each surviving column
  // of the previous block.
  std::vector<std::size_t> prev_block;
  for (int j = 0; j < m && static_cast<int>(basis.size()) < q_target; ++j) {
    std::vector<double> b_col(n);
    for (std::size_t i = 0; i < n; ++i) {
      b_col[i] = ss.b(i, static_cast<std::size_t>(j));
    }
    if (orthonormalize_into_basis(lu.solve(b_col))) {
      prev_block.push_back(basis.size() - 1);
    }
  }
  CNTI_EXPECTS(!basis.empty(),
               "prima: input block is identically zero (no reachable states)");
  std::vector<double> cv(n);
  while (static_cast<int>(basis.size()) < q_target && !prev_block.empty()) {
    std::vector<std::size_t> next_block;
    for (const std::size_t idx : prev_block) {
      if (static_cast<int>(basis.size()) >= q_target) break;
      ss.c.multiply(basis[idx], cv);
      if (orthonormalize_into_basis(lu.solve(cv))) {
        next_block.push_back(basis.size() - 1);
      }
    }
    prev_block = std::move(next_block);
  }

  return basis;
}

ReducedModel prima_reduce(const StateSpace& ss, const PrimaOptions& options) {
  const std::vector<std::vector<double>> basis = prima_basis(ss, options);
  const std::size_t n = static_cast<std::size_t>(ss.size);

  // Congruence projection onto the span of the basis.
  const std::size_t q = basis.size();
  MatrixD gr(q, q), cr(q, q);
  std::vector<double> gv(n), cv(n);
  for (std::size_t j = 0; j < q; ++j) {
    ss.g.multiply(basis[j], gv);
    ss.c.multiply(basis[j], cv);
    for (std::size_t i = 0; i < q; ++i) {
      gr(i, j) = dot(basis[i], gv);
      cr(i, j) = dot(basis[i], cv);
    }
  }
  MatrixD br(q, ss.b.cols()), lr(q, ss.l.cols());
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < ss.b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) s += basis[i][r] * ss.b(r, j);
      br(i, j) = s;
    }
    for (std::size_t j = 0; j < ss.l.cols(); ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) s += basis[i][r] * ss.l(r, j);
      lr(i, j) = s;
    }
  }
  return ReducedModel(std::move(gr), std::move(cr), std::move(br),
                      std::move(lr), ss.input_names, ss.output_names, ss.size);
}

}  // namespace cnti::rom
