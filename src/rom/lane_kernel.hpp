// Lockstep lane kernel: the DC start and the trapezoidal transient of up
// to kLanes terminated reduced models at once. It is the one step loop of
// the ROM layer: ReducedModel::simulate, BusRom::evaluate and
// ParametrizedBusRom::evaluate are its one-lane call, and the statistical
// study feeds it groups of kLanes technology samples.
//
// Why lanes. A reduced model is dense (q ~ 100 on the 16 x 128 bus), and
// every row of the step recurrence — the history matvec and the two
// triangular solves — is one serial chain of dependent adds. One sample
// alone therefore waits on floating-point add latency, not on memory.
// Stored lane-interleaved, element (i, j) of lane l at [(i q + j) K + l],
// the same chain carries K independent samples side by side in vector
// registers, and up to kRowBlock rows are accumulated at once where the
// per-row order allows it.
//
// Bit-identity contract. Each lane performs exactly the additions,
// multiplications and divisions of the scalar algorithm — partial-pivot
// numerics::LuFactorization, its solve, and the Matrix products of the
// trapezoidal recurrence — in the same order. Lanes never mix, and rows
// are blocked only where every row still accumulates its terms in
// ascending column order. So a sample's bits depend neither on the lane
// it ran in, nor on its lane partners, nor on whether it ran alone.
//
// Memory. The interleaved step-matrix factors and history matrix
// (2 q^2 K doubles), one q x q staging pair for the lane being loaded,
// and the recorded outputs. A kernel is reused group after group; once
// it has seen the largest q, nothing more is allocated, except by a DC
// solve (a lane whose inputs are not all zero at t = 0). A kernel is not
// thread-safe: give each worker its own.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "circuit/waveform.hpp"
#include "numerics/matrix.hpp"

namespace cnti::rom {

/// Samples per lockstep group. Four lanes fill two SSE2 registers per
/// row term and keep the interleaved working set of the 16 x 128 study
/// (2 q^2 K doubles, 1.6 MB at the q = 160 it was tuned on) inside a 2 MB
/// L2; eight lanes spilled it and gained less (see
/// docs/MODEL_ORDER_REDUCTION.md).
inline constexpr std::size_t kLanes = 4;

class LaneKernel {
 public:
  /// Starts a group of `lanes` (1..kLanes) models of order q = br.rows()
  /// that share the input matrix `br` (q x m) and the output matrix `lr`
  /// (q x p). Only outputs [first_output, first_output + output_count)
  /// are recorded. `br` and `lr` must outlive run().
  void begin(std::size_t lanes, const numerics::MatrixD& br,
             const numerics::MatrixD& lr, std::size_t first_output,
             std::size_t output_count);

  /// Staging matrices for the next load_lane(): the lane's terminated Gr
  /// and Cr (q x q), written by the caller.
  numerics::MatrixD& g() { return g_; }
  numerics::MatrixD& c() { return c_; }

  /// Loads lane `lane` from the staged Gr/Cr: writes its slices of
  /// (2C/dt + G) and (2C/dt - G) and solves its DC start Gr x0 = Br u(0)
  /// (x0 = 0 without a solve when every input starts at zero). `waves` (one per input) must outlive run();
  /// the grid is t = 0, dt, ... up to >= t_stop_s, as in
  /// circuit::simulate_transient.
  void load_lane(std::size_t lane, const std::vector<circuit::Waveform>& waves,
                 double t_stop_s, double dt_s);

  /// Factors every loaded lane's step matrix and runs the trapezoidal
  /// steps in lockstep. Throws NumericalError when a step matrix is
  /// singular.
  void run();

  std::size_t steps(std::size_t lane) const { return lane_[lane].steps; }
  /// Time grid of `lane`: steps(lane) points.
  std::span<const double> time(std::size_t lane) const;
  /// Recorded output first_output + k of `lane`: steps(lane) points.
  std::span<const double> output(std::size_t lane, std::size_t k) const;

 private:
  struct Lane {
    const std::vector<circuit::Waveform>* waves = nullptr;
    double dt_s = 0.0;
    std::size_t steps = 0;
  };

  /// Gr x0 = Br u(0) for `lane` from its inputs in u_prev_, with the
  /// scalar numerics::LuFactorization of the staged Gr.
  void solve_dc(std::size_t lane);
  template <std::size_t K>
  void run_lanes();

  std::size_t lanes_ = 0;
  std::size_t stride_ = 1;  ///< kLanes, or 1 for a one-lane group.
  std::size_t q_ = 0, m_ = 0, first_output_ = 0, outputs_ = 0;
  std::size_t max_steps_ = 0;
  const numerics::MatrixD* br_ = nullptr;
  const numerics::MatrixD* lr_ = nullptr;
  numerics::MatrixD g_, c_;
  Lane lane_[kLanes];
  // Lane-interleaved state ([... ] x stride_).
  std::vector<double> lhs_;  ///< (2C/dt + G), then its LU factors.
  std::vector<double> rhs_;  ///< (2C/dt - G).
  std::vector<std::size_t> perm_;
  std::vector<double> x_, b_, u_, u_prev_;
  // Recorded results: time_[lane][step], out_[lane][k][step].
  std::vector<double> time_, out_;
};

}  // namespace cnti::rom
