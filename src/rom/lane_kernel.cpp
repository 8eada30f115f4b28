#include "rom/lane_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace cnti::rom {

namespace {

/// Rows accumulated side by side where the per-row order allows it (the
/// history matvec, forward substitution and output recording): with
/// kLanes = 4 this keeps eight independent add chains in flight.
constexpr std::size_t kRowBlock = 4;

/// One value per lane, with lane-by-lane operators. A K-lane value is
/// kLanes / 2 native two-double vectors (SSE2 on x86-64; wider generic
/// vectors are lowered through memory); each operator is the IEEE
/// operation of the scalar type per lane, a scalar operand broadcast. So
/// a lane computes exactly what the one-lane (double) instantiation
/// computes.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
struct Quad {
  Pair lo, hi;
};
inline Quad operator+(Quad a, Quad b) { return {a.lo + b.lo, a.hi + b.hi}; }
inline Quad operator-(Quad a, Quad b) { return {a.lo - b.lo, a.hi - b.hi}; }
inline Quad operator*(Quad a, Quad b) { return {a.lo * b.lo, a.hi * b.hi}; }
inline Quad operator/(Quad a, Quad b) { return {a.lo / b.lo, a.hi / b.hi}; }
inline Quad operator*(double s, Quad b) { return {s * b.lo, s * b.hi}; }
inline Quad& operator+=(Quad& a, Quad b) { return a = a + b; }
inline Quad& operator-=(Quad& a, Quad b) { return a = a - b; }
static_assert(kLanes == 4, "Quad holds four lanes");

template <std::size_t K>
struct LaneValue;
template <>
struct LaneValue<1> {
  using type = double;
};
template <>
struct LaneValue<kLanes> {
  using type = Quad;
};
template <std::size_t K>
using V = typename LaneValue<K>::type;

inline Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <std::size_t K>
V<K> load(const double* p) {
  if constexpr (K == 1) {
    return *p;
  } else {
    return {load_pair(p), load_pair(p + 2)};
  }
}

template <std::size_t K>
void store(double* p, V<K> v) {
  if constexpr (K == 1) {
    *p = v;
  } else {
    std::memcpy(p, &v.lo, sizeof v.lo);
    std::memcpy(p + 2, &v.hi, sizeof v.hi);
  }
}

/// In-place partial-pivot LU of K lane-interleaved n x n matrices. Per
/// lane, exactly numerics::LuFactorization: same pivot choice, row swaps,
/// multipliers and elimination order, the same zero-multiplier skip.
template <std::size_t K>
void lu_factor(double* a, std::size_t* perm, std::size_t n) {
  const auto at = [&](std::size_t i, std::size_t j) -> double* {
    return a + (i * n + j) * K;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < K; ++l) perm[i * K + l] = i;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t l = 0; l < K; ++l) {
      std::size_t piv = k;
      double best = std::abs(at(k, k)[l]);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::abs(at(i, k)[l]);
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best < 1e-300) {
        throw NumericalError("LU: matrix is singular to working precision");
      }
      if (piv != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(at(k, j)[l], at(piv, j)[l]);
        std::swap(perm[k * K + l], perm[piv * K + l]);
      }
    }
    const V<K> pivot = load<K>(at(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const V<K> m = load<K>(at(i, k)) / pivot;
      store<K>(at(i, k), m);
      double ml[K];
      store<K>(ml, m);
      std::size_t nonzero = 0;
      for (std::size_t l = 0; l < K; ++l) nonzero += ml[l] != 0.0 ? 1 : 0;
      if (nonzero == K) {
        for (std::size_t j = k + 1; j < n; ++j) {
          store<K>(at(i, j), load<K>(at(i, j)) - m * load<K>(at(k, j)));
        }
      } else if (nonzero > 0) {  // a zero-multiplier lane keeps its row
        for (std::size_t j = k + 1; j < n; ++j) {
          for (std::size_t l = 0; l < K; ++l) {
            if (ml[l] != 0.0) at(i, j)[l] -= ml[l] * at(k, j)[l];
          }
        }
      }
    }
  }
}

/// Forward substitution of rows [i0, i0 + R): every row subtracts its
/// terms in ascending column order, the rows of the block interleaved.
template <std::size_t K, std::size_t R>
void forward_rows(const double* lu, const std::size_t* perm, const double* b,
                  double* x, std::size_t n, std::size_t i0) {
  V<K> acc[R] = {};
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    double rhs[K];
    for (std::size_t l = 0; l < K; ++l) {
      rhs[l] = b[perm[(i0 + r) * K + l] * K + l];
    }
    acc[r] = load<K>(rhs);
  }
  for (std::size_t j = 0; j < i0; ++j) {
    const V<K> xj = load<K>(x + j * K);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] -= load<K>(lu + ((i0 + r) * n + j) * K) * xj;
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    store<K>(x + (i0 + r) * K, acc[r]);
    for (std::size_t r2 = r + 1; r2 < R; ++r2) {
      acc[r2] -= load<K>(lu + ((i0 + r2) * n + i0 + r) * K) * acc[r];
    }
  }
}

/// Calls f.operator()<R>(i0) over rows [0, n): blocks of kRowBlock rows,
/// then single rows.
template <typename F>
void row_blocks(std::size_t n, F&& f) {
  std::size_t i = 0;
  for (; i + kRowBlock <= n; i += kRowBlock) {
    f.template operator()<kRowBlock>(i);
  }
  for (; i < n; ++i) f.template operator()<1>(i);
}

/// Solves A x = b on K interleaved factorizations; per lane exactly
/// numerics::LuFactorization::solve.
template <std::size_t K>
void lu_solve(const double* lu, const std::size_t* perm, const double* b,
              double* x, std::size_t n) {
  row_blocks(n, [&]<std::size_t R>(std::size_t i) {
    forward_rows<K, R>(lu, perm, b, x, n, i);
  });
  // Back substitution: row ii needs x[ii + 1] for its first term, so rows
  // cannot be interleaved here without reordering; the lanes carry it.
  for (std::size_t ii = n; ii-- > 0;) {
    V<K> acc = load<K>(x + ii * K);
    for (std::size_t j = ii + 1; j < n; ++j) {
      acc -= load<K>(lu + (ii * n + j) * K) * load<K>(x + j * K);
    }
    store<K>(x + ii * K, acc / load<K>(lu + (ii * n + ii) * K));
  }
}

/// Right-hand side of rows [i0, i0 + R) of one trapezoidal step:
/// (2C/dt - G) x + Br (u_prev + u), each product accumulated from zero
/// in ascending order and then added, as Matrix::operator* does.
template <std::size_t K, std::size_t R>
void step_rhs_rows(const double* h, const double* x, const double* br,
                   const double* usum, double* out, std::size_t q,
                   std::size_t m, std::size_t i0) {
  V<K> acc[R] = {};
  for (std::size_t j = 0; j < q; ++j) {
    const V<K> xj = load<K>(x + j * K);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] += load<K>(h + ((i0 + r) * q + j) * K) * xj;
    }
  }
  V<K> bu[R] = {};
  for (std::size_t k = 0; k < m; ++k) {
    const V<K> uk = load<K>(usum + k * K);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) bu[r] += br[(i0 + r) * m + k] * uk;
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    store<K>(out + (i0 + r) * K, acc[r] + bu[r]);
  }
}

/// Outputs [o0, o0 + R) of lr^T x, each accumulated from zero over the
/// states in ascending order. Lane l of output o0 + r is written to
/// out[l * lane_stride + r * output_stride].
template <std::size_t K, std::size_t R>
void output_rows(const double* lr, std::size_t p, const double* x,
                 std::size_t q, std::size_t o0, double* out,
                 std::size_t lane_stride, std::size_t output_stride) {
  V<K> acc[R] = {};
  for (std::size_t i = 0; i < q; ++i) {
    const V<K> xi = load<K>(x + i * K);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) acc[r] += lr[i * p + o0 + r] * xi;
  }
  for (std::size_t r = 0; r < R; ++r) {
    double lanes[K];
    store<K>(lanes, acc[r]);
    for (std::size_t l = 0; l < K; ++l) {
      out[l * lane_stride + r * output_stride] = lanes[l];
    }
  }
}

}  // namespace

void LaneKernel::begin(std::size_t lanes, const numerics::MatrixD& br,
                       const numerics::MatrixD& lr, std::size_t first_output,
                       std::size_t output_count) {
  const std::size_t q = br.rows();
  CNTI_EXPECTS(lanes >= 1 && lanes <= kLanes,
               "LaneKernel: lane count must lie in [1, kLanes]");
  CNTI_EXPECTS(q > 0 && lr.rows() == q, "LaneKernel: Br/Lr row mismatch");
  CNTI_EXPECTS(first_output + output_count <= lr.cols(),
               "LaneKernel: recorded outputs out of range");
  lanes_ = lanes;
  stride_ = lanes == 1 ? 1 : kLanes;
  q_ = q;
  m_ = br.cols();
  first_output_ = first_output;
  outputs_ = output_count;
  br_ = &br;
  lr_ = &lr;
  if (g_.rows() != q) {
    g_ = numerics::MatrixD(q, q);
    c_ = numerics::MatrixD(q, q);
  }
  for (Lane& lane : lane_) lane = Lane{};
  lhs_.resize(q * q * stride_);
  rhs_.resize(q * q * stride_);
  perm_.resize(q * stride_);
  x_.resize(q * stride_);
  b_.resize(q * stride_);
  u_.resize(m_ * stride_);
  u_prev_.resize(m_ * stride_);
}

void LaneKernel::load_lane(std::size_t lane,
                           const std::vector<circuit::Waveform>& waves,
                           double t_stop_s, double dt_s) {
  static const obs::Histogram dc_hist = obs::histogram("cnti.rom.dc_ns");
  const obs::ObsSpan dc_span("rom.dc", "rom", dc_hist);
  CNTI_EXPECTS(lane < lanes_, "LaneKernel: lane index out of range");
  CNTI_EXPECTS(waves.size() == m_, "simulate: need one waveform per input");
  CNTI_EXPECTS(t_stop_s > 0, "simulate: t_stop must be positive");
  CNTI_EXPECTS(dt_s > 0 && dt_s < t_stop_s,
               "simulate: dt must be positive and below t_stop");
  const std::size_t q = q_;
  const std::size_t k = stride_;

  // Trapezoidal: (2C/dt + G) x1 = (2C/dt - G) x0 + B (u0 + u1), with the
  // two matrices formed as cr * (2/dt) then +/- gr.
  const double s = 2.0 / dt_s;
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      const double cs = c_(i, j) * s;
      lhs_[(i * q + j) * k + lane] = cs + g_(i, j);
      rhs_[(i * q + j) * k + lane] = cs - g_(i, j);
    }
  }

  // DC start: Gr x0 = Br u(0), matching the full engine's operating-point
  // initialisation. With every input at zero (a quiescent start, as on
  // the bus) x0 is zero: the LU solve would return signed zeros, and no
  // sign of them survives, because every later use of x0 adds its
  // products to a +0 accumulator. So the solve is skipped.
  bool quiescent = true;
  for (std::size_t in = 0; in < m_; ++in) {
    u_prev_[in * k + lane] = circuit::waveform_value(waves[in], 0.0);
    quiescent = quiescent && u_prev_[in * k + lane] == 0.0;
  }
  if (quiescent) {
    for (std::size_t i = 0; i < q; ++i) x_[i * k + lane] = 0.0;
  } else {
    solve_dc(lane);
  }

  lane_[lane].waves = &waves;
  lane_[lane].dt_s = dt_s;
  // Same grid construction as circuit::simulate_transient, so ROM and full
  // MNA waveforms are directly comparable sample-by-sample.
  lane_[lane].steps =
      static_cast<std::size_t>(std::ceil(t_stop_s / dt_s - 1e-9)) + 1;
}

void LaneKernel::solve_dc(std::size_t lane) {
  std::vector<double> u0(m_);
  for (std::size_t in = 0; in < m_; ++in) u0[in] = u_prev_[in * stride_ + lane];
  const std::vector<double> x0 =
      numerics::LuFactorization<double>(g_).solve(*br_ * u0);
  for (std::size_t i = 0; i < q_; ++i) x_[i * stride_ + lane] = x0[i];
}

void LaneKernel::run() {
  for (std::size_t l = 0; l < lanes_; ++l) {
    CNTI_EXPECTS(lane_[l].waves != nullptr, "LaneKernel: lane not loaded");
  }
  static const obs::Histogram sim_hist = obs::histogram("cnti.rom.simulate_ns");
  const obs::ObsSpan sim_span("rom.simulate", "rom", sim_hist);
  if (stride_ == 1) {
    run_lanes<1>();
  } else {
    run_lanes<kLanes>();
  }
}

template <std::size_t K>
void LaneKernel::run_lanes() {
  const std::size_t q = q_;
  const std::size_t m = m_;
  const std::size_t p = lr_->cols();
  const double* br = br_->data();
  const double* lr = lr_->data();

  // Ragged group: idle lanes replay lane 0, so every lane stays finite
  // and nonsingular; their results are never read.
  for (std::size_t l = lanes_; l < K; ++l) {
    for (std::size_t e = 0; e < q * q; ++e) {
      lhs_[e * K + l] = lhs_[e * K];
      rhs_[e * K + l] = rhs_[e * K];
    }
    for (std::size_t i = 0; i < q; ++i) x_[i * K + l] = x_[i * K];
    for (std::size_t in = 0; in < m; ++in) u_prev_[in * K + l] = u_prev_[in * K];
    lane_[l] = lane_[0];
  }

  lu_factor<K>(lhs_.data(), perm_.data(), q);

  max_steps_ = 0;
  for (std::size_t l = 0; l < K; ++l) max_steps_ = std::max(max_steps_, lane_[l].steps);
  const std::size_t ns = max_steps_;
  time_.resize(K * ns);
  out_.resize(K * outputs_ * ns);
  const auto record = [&](std::size_t step) {
    row_blocks(outputs_, [&]<std::size_t R>(std::size_t k) {
      output_rows<K, R>(lr, p, x_.data(), q, first_output_ + k,
                        out_.data() + k * ns + step, outputs_ * ns, ns);
    });
  };
  for (std::size_t l = 0; l < K; ++l) time_[l * ns] = 0.0;
  record(0);

  for (std::size_t step = 1; step < ns; ++step) {
    for (std::size_t l = 0; l < K; ++l) {
      const double t = static_cast<double>(step) * lane_[l].dt_s;
      time_[l * ns + step] = t;
      const std::vector<circuit::Waveform>& waves = *lane_[l].waves;
      for (std::size_t in = 0; in < m; ++in) {
        u_[in * K + l] = circuit::waveform_value(waves[in], t);
      }
    }
    // u_prev + u, formed in place: the step after reads only u.
    for (std::size_t e = 0; e < m * K; ++e) u_prev_[e] += u_[e];
    row_blocks(q, [&]<std::size_t R>(std::size_t i) {
      step_rhs_rows<K, R>(rhs_.data(), x_.data(), br, u_prev_.data(),
                          b_.data(), q, m, i);
    });
    lu_solve<K>(lhs_.data(), perm_.data(), b_.data(), x_.data(), q);
    std::swap(u_prev_, u_);
    record(step);
  }
}

std::span<const double> LaneKernel::time(std::size_t lane) const {
  return {time_.data() + lane * max_steps_, lane_[lane].steps};
}

std::span<const double> LaneKernel::output(std::size_t lane,
                                           std::size_t k) const {
  return {out_.data() + (lane * outputs_ + k) * max_steps_, lane_[lane].steps};
}

}  // namespace cnti::rom
