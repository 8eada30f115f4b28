// Corner-anchored parametrized bus ROM: the reduction that survives
// technology variability. A topology-keyed BusRom is invalidated the
// moment a Monte Carlo sample perturbs the per-unit-length electricals —
// re-running PRIMA per sample would cost more than the full transient it
// replaces. Instead, reduce once at the 2^k corner anchors of the varied
// axes (line R/m, line C/m, neighbour-coupling C/m extremes), merge the
// corner Krylov bases into one orthonormal basis, compress it, and
// re-project every corner's full-order G/C through that common V.
//
// Compression ("poor man's TBR", Phillips & Silveira 2005, on the
// multiparameter moment-matching bases of Daniel et al. 2004): the MGS
// merge records its coefficients, so the stacked corner bases factor as
// W = Q R; with the SVD R = U S Y^T, V = Q U holds W's directions by
// descending singular value without ever forming W^T W. The corners share
// most of their Krylov space, so the spectrum falls fast and every leading
// r columns of V is the best rank-r basis for all corners at once.
//
// Sizing by an error budget: the order is the smallest r whose model meets
// a quarter of kErrorBudget (relative noise and delay) against the full
// sparse-MNA transient at deterministic interior probes of the box, under
// the nominal drive. The references run once; the search over r runs only
// ROM transients, because the order-r model is the leading r x r block of
// the full-rank projection. If even the full merged rank misses, the
// corner order rises by one block moment, up to the BusRom budget.
// Sizing reads only the topology, box and aggressor — a reduction's cache
// key.
//
// Evaluation at an interior technology point blends the corner-projected
// matrices multilinearly in *transformed* coordinates — 1/scale for the
// resistance axis (stamps are conductances), scale for the capacitance
// axes. Because every entry of the bus G (resp. C) is affine in those
// coordinates, the blend equals V^T G(p) V exactly: a congruence
// projection of the true passive network at p, so the blended model is
// unconditionally stable and the only approximation is basis quality at
// interior points — which validate_against_mna bounds against the full
// sparse-MNA transient at sampled non-anchor points.
//
// evaluate() is const and thread-safe: reduce once per (topology, box,
// aggressor), then sample technologies in parallel at ROM cost, in
// lockstep groups of kLanes samples per worker (rom/lane_kernel.hpp).
#pragma once

#include <span>

#include "circuit/crosstalk.hpp"
#include "rom/interconnect_rom.hpp"
#include "rom/prima.hpp"

namespace cnti::rom {

/// One sampled technology: multiplicative scales on the anchor topology's
/// per-unit-length electricals. {1, 1, 1} is the anchor itself.
struct BusTechPoint {
  double resistance_scale = 1.0;   ///< line.resistance_per_m factor.
  double capacitance_scale = 1.0;  ///< line.capacitance_per_m factor.
  double coupling_scale = 1.0;     ///< coupling_cap_per_m factor.
};

/// Axis-aligned scale box the ROM is anchored on: corners are every
/// lo/hi combination of the axes with lo != hi (equal bounds collapse the
/// axis, so a fully degenerate box has a single corner and the model is an
/// ordinary BusRom). All bounds must be positive with lo <= hi.
struct BusTechBox {
  BusTechPoint lo;
  BusTechPoint hi;
};

/// Interior-probe accuracy report of validate_against_mna.
struct ParamRomValidation {
  int probes = 0;
  double max_noise_rel_err = 0.0;  ///< vs full MNA |peak_noise| scale.
  double max_delay_rel_err = 0.0;  ///< vs full MNA aggressor delay.
};

class ParametrizedBusRom {
 public:
  /// Relative noise and delay error budget against full sparse MNA;
  /// sizing holds its probes to a quarter of it, leaving headroom for
  /// other interior points and lighter loads (see the header comment).
  static constexpr double kErrorBudget = 1e-4;

  /// Reduces the bare coupled bus at every corner of `box` around
  /// `nominal`, merges and compresses the bases and sizes the model to
  /// kErrorBudget. `aggressor` only selects the driven port for evaluate()
  /// (-1 = centre). `corner_options` applies to each corner reduction:
  /// expansion 0 picks the nominal topology's settle-time corner (one
  /// expansion point for all corners, so the bases stay comparable);
  /// order <= 0 starts at one block moment (2 x lines columns) and adds a
  /// block, up to the BusRom budget (6 x lines, at most half the full
  /// order), while even the full merged rank misses the error budget — a
  /// positive order is the starting order instead. A degenerate box is
  /// the BusRom reduction at the BusRom budget, uncompressed.
  ParametrizedBusRom(const circuit::BusTopology& nominal,
                     const BusTechBox& box, int aggressor = -1,
                     PrimaOptions corner_options = {.order = 0});

  int lines() const { return topology_.lines; }
  int full_order() const { return full_order_; }
  /// Sized basis size: every blended model is order() x order().
  int order() const { return static_cast<int>(basis_size_); }
  int corners() const { return static_cast<int>(corner_points_.size()); }
  int aggressor() const { return aggressor_; }
  const circuit::BusTopology& nominal_topology() const { return topology_; }
  const BusTechBox& box() const { return box_; }

  /// The full-order topology at a technology point (what the equivalent
  /// sparse-MNA analysis would simulate).
  circuit::BusTopology topology_at(const BusTechPoint& point) const;

  /// Blended bare-bus reduced model at `point` (must lie inside the box):
  /// exactly V^T G(p) V / V^T C(p) V, see the header comment.
  ReducedModel model_at(const BusTechPoint& point) const;

  /// Transient window for a scenario at a technology point — the same
  /// bus_settle_time_s grid as analyze_bus_crosstalk of topology_at(point).
  double window_s(const BusTechPoint& point,
                  const BusScenario& scenario) const;

  /// Runs the scenario transient on the blended model; field-for-field
  /// comparable with analyze_bus_crosstalk(topology_at(point), drive).
  /// The one-lane call of the lane-group evaluate below.
  circuit::BusCrosstalkResult evaluate(const BusTechPoint& point,
                                       const BusScenario& scenario,
                                       int time_steps = 1500) const;

  /// Lane buffers for evaluating `scenario` on this ROM (one per worker).
  BusLanes bus_lanes(const BusScenario& scenario, int time_steps) const;

  /// Evaluates every point in lockstep groups of up to kLanes on `lanes`
  /// (from bus_lanes()); out[i] is bit-identical to evaluate(points[i],
  /// lanes.scenario(), time_steps). Allocates nothing once `lanes` has
  /// run a group.
  void evaluate(std::span<const BusTechPoint> points, BusLanes& lanes,
                std::span<circuit::BusCrosstalkResult> out) const;

  /// Error-bound policy: evaluates `probes` deterministic interior
  /// (non-anchor) technology points both ways — blended ROM vs full
  /// sparse-MNA transient — and reports the worst relative noise/delay
  /// error. Construction-time users gate on this (e.g. <= 1%) before
  /// trusting the ROM across a Monte Carlo study.
  ParamRomValidation validate_against_mna(const BusScenario& scenario,
                                          int probes = 5,
                                          int time_steps = 1500) const;

 private:
  /// Sizing probes, the scenario they run and their full-MNA results —
  /// computed once per construction, reused if the corner order rises.
  struct SizingReference {
    std::vector<BusTechPoint> points;
    BusScenario scenario;  ///< The nominal (default BusDrive) scenario.
    std::vector<circuit::BusCrosstalkResult> mna;
  };

  /// Sets the corner matrices and port projections through the basis `v`
  /// (order() = v.size()).
  void project_corners(const std::vector<StateSpace>& corner_ss,
                       const std::vector<std::vector<double>>& v);
  /// Truncates the full-rank projection to the smallest order whose
  /// probes meet kErrorBudget / 4; returns false (keeping the full rank)
  /// when even the full rank misses it.
  bool size_to_budget(SizingReference& reference);

  /// Blends V^T G(p) V / V^T C(p) V into g and c (q x q).
  void blend_into(const BusTechPoint& point, numerics::MatrixD& g,
                  numerics::MatrixD& c) const;

  circuit::BusTopology topology_;  ///< Anchor (scale = 1) topology.
  BusTechBox box_;
  int aggressor_ = 0;
  int full_order_ = 0;
  std::size_t basis_size_ = 0;
  std::vector<BusTechPoint> corner_points_;
  /// Per-corner projected matrices through the shared merged basis.
  std::vector<numerics::MatrixD> corner_gr_, corner_cr_;
  numerics::MatrixD br_, lr_;  ///< Port incidence: identical at every corner.
  std::vector<std::string> input_names_, output_names_;
};

}  // namespace cnti::rom
