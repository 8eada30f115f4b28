// DC sweep utility: steps one voltage source across a range, solving the
// operating point at every step (seeded by the previous solution inside
// solve_dc's continuation). Produces transfer curves such as the inverter
// VTC used to characterize the 45 nm drivers of the Fig. 11/12 benchmark.
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"

namespace cnti::circuit {

struct DcSweepResult {
  std::vector<double> input_v;
  std::vector<double> output_v;

  /// Maximum |dVout/dVin| — e.g. inverter small-signal gain magnitude.
  double max_gain() const;
  /// Input voltage at which the output crosses `level` (interpolated);
  /// negative if never crossed.
  double input_at_output(double level) const;
};

/// Sweeps the named DC source from v_start to v_stop in `points` steps and
/// records the voltage of `observe`. The source must exist and be a
/// DcWave (sweeping a pulse source would be ambiguous).
DcSweepResult dc_sweep(Circuit ckt, const std::string& source_name,
                       double v_start, double v_stop, int points,
                       NodeId observe);

}  // namespace cnti::circuit
