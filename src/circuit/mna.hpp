// Modified nodal analysis engine: DC operating point (Newton, with g_min
// stepping for circuits with MOSFETs) and fixed-step trapezoidal transient
// (Newton per step). One engine serves every circuit: pattern-frozen CSR
// stamping into a Gilbert–Peierls sparse LU with an AMD column ordering,
// refactorized only when the assembled values change. A transient runs its
// initial DC point on its own backend, and DC stamps the reactive companion
// slots as zeros, so the whole call shares one pattern, one ordering and
// one symbolic analysis. A circuit without MOSFETs stamps its matrix once
// for DC and once at its fixed timestep, then builds only the right-hand
// side and back-substitutes every step; the transient records only the
// nodes its caller names. `reference::` replays the same stamping and
// Newton on a dense LU for differential tests. See docs/CIRCUIT_SOLVERS.md.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "numerics/matrix.hpp"

namespace cnti::circuit {

/// DC operating point.
struct DcResult {
  std::vector<double> node_voltages;    ///< [0] = ground = 0.
  std::vector<double> vsource_currents;
  std::vector<double> inductor_currents;
  int newton_iterations = 0;
};

DcResult solve_dc(const Circuit& ckt, double time_s = 0.0);

/// Reusable DC engine for repeated operating-point solves of one circuit
/// (dc_sweep, corner loops): the sparse backend — its frozen stamp pattern,
/// ordering and symbolic analysis — persists across solve() calls. The
/// solver holds a reference: `ckt` must outlive it (binding a temporary is
/// rejected at compile time). Element *values* (source waveforms) may
/// change between calls; the circuit's topology must not.
class DcSolver {
 public:
  explicit DcSolver(const Circuit& ckt);
  explicit DcSolver(Circuit&& ckt) = delete;
  ~DcSolver();
  DcSolver(DcSolver&&) noexcept;
  DcSolver& operator=(DcSolver&&) noexcept;

  DcResult solve(double time_s = 0.0);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Trapezoidal transient on a fixed grid: 0, dt, 2 dt, ... up to t_stop.
/// Both time fields must be finite, with 0 < dt_s < t_stop_s.
struct TransientOptions {
  double t_stop_s = 1e-9;
  double dt_s = 1e-12;
  /// Node voltages to record (ground allowed, duplicates ignored); empty
  /// records every node. A caller that reads a few nodes of a large
  /// circuit names them here and skips the full [node][step] table.
  std::vector<NodeId> probes;
};

/// Transient waveforms of the recorded nodes, looked up by NodeId (ground
/// records as all-zeros).
class TransientResult {
 public:
  /// Every node recorded: voltages[node][step] for node 0..N.
  TransientResult(std::vector<double> time,
                  std::vector<std::vector<double>> voltages);
  /// Recorded subset: voltages[slot_of_node[node]][step], where
  /// slot_of_node[node] < 0 marks a node that was not recorded.
  TransientResult(std::vector<double> time, std::vector<int> slot_of_node,
                  std::vector<std::vector<double>> voltages);

  const std::vector<double>& time() const { return time_; }

  /// Throws PreconditionError for an id outside the circuit or a node
  /// that was not recorded (the message names the node id).
  const std::vector<double>& voltage(NodeId node) const;

  std::size_t steps() const { return time_.size(); }

 private:
  std::vector<double> time_;
  std::vector<int> slot_;                      // [node] -> row, -1 = absent
  std::vector<std::vector<double>> voltages_;  // [slot][step]
};

TransientResult simulate_transient(const Circuit& ckt,
                                   const TransientOptions& options);

/// Test oracle, no production caller: the engine's stamping, g_min ladder
/// and Newton solved with a dense LU that factors from scratch on every
/// solve. Differential tests compare the engine against it.
namespace reference {

DcResult solve_dc(const Circuit& ckt, double time_s = 0.0);
TransientResult simulate_transient(const Circuit& ckt,
                                   const TransientOptions& options);

}  // namespace reference

}  // namespace cnti::circuit
