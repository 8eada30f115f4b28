#include "circuit/dc_sweep.hpp"

#include <cmath>

namespace cnti::circuit {

double DcSweepResult::max_gain() const {
  double g = 0.0;
  for (std::size_t i = 1; i < input_v.size(); ++i) {
    const double dv_in = input_v[i] - input_v[i - 1];
    if (std::abs(dv_in) < 1e-15) continue;
    g = std::max(g, std::abs((output_v[i] - output_v[i - 1]) / dv_in));
  }
  return g;
}

double DcSweepResult::input_at_output(double level) const {
  for (std::size_t i = 1; i < input_v.size(); ++i) {
    const bool crossed =
        (output_v[i - 1] - level) * (output_v[i] - level) <= 0.0 &&
        output_v[i - 1] != output_v[i];
    if (crossed) {
      const double t =
          (level - output_v[i - 1]) / (output_v[i] - output_v[i - 1]);
      return input_v[i - 1] + t * (input_v[i] - input_v[i - 1]);
    }
  }
  return -1.0;
}

DcSweepResult dc_sweep(Circuit ckt, const std::string& source_name,
                       double v_start, double v_stop, int points,
                       NodeId observe) {
  CNTI_EXPECTS(points >= 2, "need at least two sweep points");
  // Locate the source; the netlist is copied so we can mutate its wave.
  // (Circuit stores sources by value; we rebuild the wave per step.)
  std::size_t src = ckt.vsources().size();
  for (std::size_t k = 0; k < ckt.vsources().size(); ++k) {
    if (ckt.vsources()[k].name == source_name) src = k;
  }
  CNTI_EXPECTS(src < ckt.vsources().size(),
               "unknown source: " + source_name);
  CNTI_EXPECTS(std::holds_alternative<DcWave>(ckt.vsources()[src].wave),
               "dc_sweep requires a DC source: " + source_name);

  DcSweepResult out;
  out.input_v.reserve(static_cast<std::size_t>(points));
  out.output_v.reserve(static_cast<std::size_t>(points));
  // One solver for the whole sweep: only the source value changes per
  // point, so the sparse backend's pattern and symbolic analysis are
  // computed at the first point and reused for the rest.
  DcSolver solver(ckt);
  for (int i = 0; i < points; ++i) {
    const double v =
        v_start + (v_stop - v_start) * i / (points - 1);
    ckt.set_vsource_wave(src, DcWave{v});
    const DcResult dc = solver.solve();
    out.input_v.push_back(v);
    out.output_v.push_back(
        dc.node_voltages[static_cast<std::size_t>(observe)]);
  }
  return out;
}

}  // namespace cnti::circuit
