#include "rom/reduced_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "numerics/eig.hpp"
#include "obs/obs.hpp"
#include "rom/detail.hpp"
#include "rom/lane_kernel.hpp"

namespace cnti::rom {

namespace {

using numerics::LuFactorization;
using numerics::MatrixC;
using numerics::MatrixD;
using std::complex;

std::vector<double> column(const MatrixD& m, int c) {
  std::vector<double> out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    out[r] = m(r, static_cast<std::size_t>(c));
  }
  return out;
}

/// True when adding +-0 could change a value of the row: it holds a -0.0
/// (-0 + +0 is +0) or a NaN (whose payload an add may rewrite).
bool adding_zero_changes(const double* row, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    if ((row[j] == 0.0 && std::signbit(row[j])) || std::isnan(row[j])) {
      return true;
    }
  }
  return false;
}

/// Row i of fold_terminations for one matrix: for each load in order,
/// row[j] += (load.*value * Br(i, in)) * Lr(j, out), bit-identical to the
/// documented arithmetic, which applies every load and skips zero Br and
/// Lr entries. The terms this loop adds or drops instead are all +-0
/// (finite inputs), and adding +-0 leaves a value unchanged unless it is
/// -0.0 or NaN. A sum is -0.0 only when both operands are, so a row
/// without either never gains one: it skips loads whose value is 0 and
/// runs the branch-free (vectorizable) update. A row that holds one, or a
/// product that overflows, keeps the zero-entry skip.
void fold_row(double* row, std::size_t q, std::size_t i,
              double PortTermination::*value, const MatrixD& br,
              const MatrixD& lr_t, const std::vector<PortTermination>& loads) {
  const bool exact = adding_zero_changes(row, q);
  for (const auto& load : loads) {
    const double bi = br(i, static_cast<std::size_t>(load.input));
    if (bi == 0.0 || (load.*value == 0.0 && !exact)) continue;
    const double fb = load.*value * bi;
    const double* lj = &lr_t(static_cast<std::size_t>(load.output), 0);
    if (exact || !std::isfinite(fb)) {
      for (std::size_t j = 0; j < q; ++j) {
        if (lj[j] == 0.0) continue;
        row[j] += fb * lj[j];
      }
    } else {
      for (std::size_t j = 0; j < q; ++j) row[j] += fb * lj[j];
    }
  }
}

}  // namespace

ReducedModel::ReducedModel(MatrixD gr, MatrixD cr, MatrixD br, MatrixD lr,
                           std::vector<std::string> input_names,
                           std::vector<std::string> output_names,
                           int full_order)
    : gr_(std::move(gr)),
      cr_(std::move(cr)),
      br_(std::move(br)),
      lr_(std::move(lr)),
      input_names_(std::move(input_names)),
      output_names_(std::move(output_names)),
      full_order_(full_order) {
  const std::size_t q = gr_.rows();
  CNTI_EXPECTS(q > 0 && gr_.cols() == q, "ReducedModel: Gr must be square");
  CNTI_EXPECTS(cr_.rows() == q && cr_.cols() == q,
               "ReducedModel: Cr shape mismatch");
  CNTI_EXPECTS(br_.rows() == q && lr_.rows() == q,
               "ReducedModel: Br/Lr row mismatch");
  CNTI_EXPECTS(input_names_.size() == br_.cols(),
               "ReducedModel: input name count mismatch");
  CNTI_EXPECTS(output_names_.size() == lr_.cols(),
               "ReducedModel: output name count mismatch");
}

int ReducedModel::input_index(const std::string& name) const {
  return detail::find_name_index(input_names_, name, "ReducedModel", "input");
}

int ReducedModel::output_index(const std::string& name) const {
  return detail::find_name_index(output_names_, name, "ReducedModel",
                                 "output");
}

ReducedModel ReducedModel::terminated(
    const std::vector<PortTermination>& loads) const {
  MatrixD g = gr_;
  MatrixD c = cr_;
  fold_terminations(g, c, br_, lr_.transpose(), loads);
  return ReducedModel(std::move(g), std::move(c), br_, lr_, input_names_,
                      output_names_, full_order_);
}

void fold_terminations(MatrixD& g, MatrixD& c, const MatrixD& br,
                       const MatrixD& lr_t,
                       const std::vector<PortTermination>& loads) {
  static const obs::Histogram terminate_hist =
      obs::histogram("cnti.rom.terminate_ns");
  const obs::ObsSpan terminate_span("rom.terminate", "rom", terminate_hist);
  const std::size_t q = g.rows();
  CNTI_EXPECTS(g.cols() == q && c.rows() == q && c.cols() == q &&
                   br.rows() == q && lr_t.cols() == q,
               "terminated: shape mismatch");
  for (const auto& load : loads) {
    CNTI_EXPECTS(load.input >= 0 && load.input < static_cast<int>(br.cols()),
                 "terminated: input index out of range");
    CNTI_EXPECTS(
        load.output >= 0 && load.output < static_cast<int>(lr_t.rows()),
        "terminated: output index out of range");
    CNTI_EXPECTS(std::isfinite(load.conductance_s) &&
                     std::isfinite(load.capacitance_f) &&
                     load.conductance_s >= 0 && load.capacitance_f >= 0,
                 "terminated: shunt elements must be finite and >= 0");
    for (std::size_t i = 0; i < q; ++i) {
      CNTI_EXPECTS(std::isfinite(br(i, static_cast<std::size_t>(load.input))),
                   "terminated: Br has a non-finite entry in a loaded input");
      CNTI_EXPECTS(
          std::isfinite(lr_t(static_cast<std::size_t>(load.output), i)),
          "terminated: Lr has a non-finite entry in a loaded output");
    }
  }
  // i_port = -(g + s c) v_port folds as the rank-1 congruence update
  // b l^T — exactly V^T (G_full + g e e^T) V when input and output map
  // the same node, so the terminated model is still a projection of a
  // passive network. Row by row with the loads inside: each entry still
  // takes its updates in load order. On the bus every driver load has no
  // capacitance and every receiver load no conductance, so each matrix
  // takes half of the loads.
  for (std::size_t i = 0; i < q; ++i) {
    fold_row(&g(i, 0), q, i, &PortTermination::conductance_s, br, lr_t, loads);
    fold_row(&c(i, 0), q, i, &PortTermination::capacitance_f, br, lr_t, loads);
  }
}

complex<double> ReducedModel::transfer(double frequency_hz, int output,
                                       int input) const {
  CNTI_EXPECTS(frequency_hz >= 0, "transfer: negative frequency");
  CNTI_EXPECTS(input >= 0 && input < inputs(),
               "transfer: input index out of range");
  CNTI_EXPECTS(output >= 0 && output < outputs(),
               "transfer: output index out of range");
  const std::size_t q = gr_.rows();
  const double omega = 2.0 * M_PI * frequency_hz;
  MatrixC a(q, q);
  std::vector<complex<double>> rhs(q);
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      a(i, j) = complex<double>(gr_(i, j), omega * cr_(i, j));
    }
    rhs[i] = complex<double>(br_(i, static_cast<std::size_t>(input)), 0.0);
  }
  const auto x = LuFactorization<complex<double>>(a).solve(rhs);
  complex<double> y(0.0, 0.0);
  for (std::size_t i = 0; i < q; ++i) {
    y += lr_(i, static_cast<std::size_t>(output)) * x[i];
  }
  return y;
}

circuit::AcResult ReducedModel::transfer_sweep(
    const std::vector<double>& freqs_hz, int output, int input) const {
  CNTI_EXPECTS(!freqs_hz.empty(), "transfer_sweep: need at least one frequency");
  circuit::AcResult out;
  out.frequency_hz = freqs_hz;
  out.transfer.reserve(freqs_hz.size());
  for (const double f : freqs_hz) {
    out.transfer.push_back(transfer(f, output, input));
  }
  return out;
}

std::vector<MatrixD> ReducedModel::moments(int count) const {
  CNTI_EXPECTS(count >= 1, "moments: need count >= 1");
  const LuFactorization<double> lu(gr_);
  // Blocks R_0 = Gr^{-1} Br, R_{k+1} = -Gr^{-1} Cr R_k; m_k = Lr^T R_k.
  MatrixD r = lu.solve(br_);
  std::vector<MatrixD> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    if (k > 0) {
      MatrixD cr_r = cr_ * r;
      cr_r *= -1.0;
      r = lu.solve(cr_r);
    }
    MatrixD mk(lr_.cols(), br_.cols());
    for (std::size_t p = 0; p < lr_.cols(); ++p) {
      const auto lcol = column(lr_, static_cast<int>(p));
      for (std::size_t m = 0; m < br_.cols(); ++m) {
        mk(p, m) = detail::dot(lcol, column(r, static_cast<int>(m)));
      }
    }
    out.push_back(std::move(mk));
  }
  return out;
}

double ReducedModel::elmore_delay(int output, int input) const {
  CNTI_EXPECTS(input >= 0 && input < inputs(),
               "elmore_delay: input index out of range");
  CNTI_EXPECTS(output >= 0 && output < outputs(),
               "elmore_delay: output index out of range");
  const auto m = moments(2);
  const double m0 = m[0](static_cast<std::size_t>(output),
                         static_cast<std::size_t>(input));
  CNTI_EXPECTS(std::abs(m0) > 1e-300, "elmore_delay: zero DC transfer");
  return -m[1](static_cast<std::size_t>(output),
               static_cast<std::size_t>(input)) /
         m0;
}

std::vector<complex<double>> ReducedModel::poles(double rel_tol) const {
  // Finite poles of (Gr + s Cr): s = -1/mu for eigenvalues mu of
  // A = Gr^{-1} Cr. Near-zero mu are numerical stand-ins for modes at
  // infinity and are dropped.
  const MatrixD a = LuFactorization<double>(gr_).solve(cr_);
  const auto mu = numerics::eigenvalues(a);
  double mu_max = 0.0;
  for (const auto& m : mu) mu_max = std::max(mu_max, std::abs(m));
  std::vector<complex<double>> out;
  for (const auto& m : mu) {
    if (std::abs(m) > rel_tol * mu_max && std::abs(m) > 0.0) {
      out.push_back(-1.0 / m);
    }
  }
  return out;
}

bool ReducedModel::stable(double slack) const {
  for (const auto& p : poles()) {
    if (p.real() > slack * std::abs(p)) return false;
  }
  return true;
}

ReducedModel::Transient ReducedModel::simulate(
    const std::vector<circuit::Waveform>& input_waves, double t_stop_s,
    double dt_s) const {
  const std::size_t p = lr_.cols();
  LaneKernel kernel;
  kernel.begin(1, br_, lr_, 0, p);
  kernel.g() = gr_;
  kernel.c() = cr_;
  kernel.load_lane(0, input_waves, t_stop_s, dt_s);
  kernel.run();
  Transient out;
  const auto time = kernel.time(0);
  out.time.assign(time.begin(), time.end());
  out.outputs.reserve(p);
  for (std::size_t j = 0; j < p; ++j) {
    const auto y = kernel.output(0, j);
    out.outputs.emplace_back(y.begin(), y.end());
  }
  return out;
}

ReducedModel::Transient ReducedModel::step_response(int input,
                                                    double t_stop_s,
                                                    double dt_s) const {
  CNTI_EXPECTS(input >= 0 && input < inputs(),
               "step_response: input index out of range");
  std::vector<circuit::Waveform> waves(static_cast<std::size_t>(inputs()),
                                       circuit::DcWave{0.0});
  circuit::PwlWave step;
  step.points = {{0.0, 0.0}, {dt_s * 1e-6, 1.0}};
  waves[static_cast<std::size_t>(input)] = step;
  return simulate(waves, t_stop_s, dt_s);
}

}  // namespace cnti::rom
