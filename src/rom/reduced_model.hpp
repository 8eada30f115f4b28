// Reduced-order descriptor model produced by PRIMA projection: a dense
// q x q system
//
//   Cr dx/dt + Gr x = Br u,   y = Lr^T x
//
// with q in the tens where the full circuit had thousands of unknowns.
// Everything a design-space sweep needs is evaluated directly on the small
// system: trapezoidal transient response to arbitrary source waveforms, AC
// transfer functions H(jw), transfer-function moments / Elmore delay, and
// dominant poles via the dense Hessenberg-QR eigensolver. Because Gr and Cr
// are congruence projections of a passive network (see state_space.hpp),
// every finite pole lies in the closed left half-plane — reduced models
// cannot blow up, no matter how aggressively the order was truncated.
//
// Port terminations (driver conductances, receiver loads) fold into the
// reduced matrices as rank-1 updates (terminated()), which is what turns
// one reduction into thousands of evaluable driver/load scenarios.
//
// All evaluation methods are const and allocate locally, so one model can
// be shared across SweepEngine/ThreadPool workers without synchronization.
// The transient runs on the lockstep lane kernel (rom/lane_kernel.hpp),
// whose buffers the statistical study reuses across samples.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "circuit/ac.hpp"
#include "circuit/waveform.hpp"
#include "numerics/matrix.hpp"

namespace cnti::rom {

/// External shunt element re-attached at a reduced port: the port's input
/// column (current injection) and output column (voltage sense) must refer
/// to the same physical node.
struct PortTermination {
  int input = 0;   ///< Input index of the port's current injection.
  int output = 0;  ///< Output index of the port's voltage sense.
  double conductance_s = 0.0;  ///< Shunt conductance to ground [S].
  double capacitance_f = 0.0;  ///< Shunt capacitance to ground [F].
};

class ReducedModel {
 public:
  ReducedModel(numerics::MatrixD gr, numerics::MatrixD cr,
               numerics::MatrixD br, numerics::MatrixD lr,
               std::vector<std::string> input_names,
               std::vector<std::string> output_names, int full_order);

  int order() const { return static_cast<int>(gr_.rows()); }
  int full_order() const { return full_order_; }
  int inputs() const { return static_cast<int>(br_.cols()); }
  int outputs() const { return static_cast<int>(lr_.cols()); }
  const std::vector<std::string>& input_names() const { return input_names_; }
  const std::vector<std::string>& output_names() const {
    return output_names_;
  }
  int input_index(const std::string& name) const;
  int output_index(const std::string& name) const;

  const numerics::MatrixD& gr() const { return gr_; }
  const numerics::MatrixD& cr() const { return cr_; }
  const numerics::MatrixD& br() const { return br_; }
  const numerics::MatrixD& lr() const { return lr_; }

  /// Model with external shunt terminations folded into Gr/Cr (rank-1
  /// congruence updates; preserves stability because the terminated full
  /// network is still passive). See fold_terminations.
  ReducedModel terminated(const std::vector<PortTermination>& loads) const;

  /// H(j 2 pi f) from one input to one output.
  std::complex<double> transfer(double frequency_hz, int output,
                                int input) const;

  /// Transfer function over a frequency grid, in the same AcResult form as
  /// circuit::ac_analysis (so bandwidth_3db etc. apply unchanged).
  circuit::AcResult transfer_sweep(const std::vector<double>& freqs_hz,
                                   int output, int input) const;

  /// Transfer-function moments about s = 0: H(s) = sum_k moments[k] s^k,
  /// each an outputs x inputs matrix. Requires nonsingular Gr.
  std::vector<numerics::MatrixD> moments(int count) const;

  /// Elmore delay -m1/m0 of one entry (first moment of the impulse
  /// response; exact for RC trees, the classic first-order delay metric).
  double elmore_delay(int output, int input) const;

  /// Finite poles: -1 / mu for the eigenvalues mu of Gr^{-1} Cr with
  /// |mu| > rel_tol * max|mu| (smaller mu correspond to modes pushed out
  /// to infinity by the reduction and carry no dynamics).
  std::vector<std::complex<double>> poles(double rel_tol = 1e-12) const;

  /// True when every finite pole satisfies Re(p) <= slack * |p| — the
  /// left-half-plane stability certificate PRIMA promises.
  bool stable(double slack = 1e-9) const;

  /// Transient outputs on the same fixed time grid as the full MNA engine
  /// (t = 0, dt, ..., >= t_stop).
  struct Transient {
    std::vector<double> time;
    std::vector<std::vector<double>> outputs;  ///< [output][step]
  };

  /// Trapezoidal integration from the DC operating point at t = 0; one
  /// waveform per input. Cost: two q x q factorizations plus O(q^2) per
  /// step. The one-lane call of the lane kernel (rom/lane_kernel.hpp).
  /// With every input zero at t = 0 the DC solve is skipped (x0 = 0), so
  /// a singular Gr throws NumericalError only for a driven start.
  Transient simulate(const std::vector<circuit::Waveform>& input_waves,
                     double t_stop_s, double dt_s) const;

  /// Convenience: unit step on `input` at t = 0+, all other inputs zero.
  Transient step_response(int input, double t_stop_s, double dt_s) const;

 private:
  numerics::MatrixD gr_, cr_, br_, lr_;
  std::vector<std::string> input_names_, output_names_;
  int full_order_ = 0;
};

/// Folds `loads` into g and c in place — the arithmetic of
/// ReducedModel::terminated: for each load in order, g(i, j) +=
/// (conductance * Br(i, in)) * Lr(j, out) and likewise c with the
/// capacitance, skipping zero Br / Lr entries. `lr_t` is Lr transposed
/// (outputs x q), so the update runs along contiguous rows. Every load is
/// validated before any is applied: its values must be finite and >= 0,
/// and the Br column and Lr row it uses finite (PreconditionError).
void fold_terminations(numerics::MatrixD& g, numerics::MatrixD& c,
                       const numerics::MatrixD& br,
                       const numerics::MatrixD& lr_t,
                       const std::vector<PortTermination>& loads);

}  // namespace cnti::rom
