// Circuit construction helpers: 45 nm-class CMOS inverters, distributed-RC
// line netlisting, and the paper's Fig. 11 benchmark (inverter driver ->
// doped MWCNT interconnect -> inverter receiver).
#pragma once

#include <string>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/line_model.hpp"

namespace cnti::circuit {

/// 45 nm-class technology bundle for the benchmark circuits.
struct Technology45nm {
  double vdd_v = 1.0;
  MosfetParams nmos{.is_pmos = false,
                    .vt_v = 0.3,
                    .kp_a_per_v2 = 450e-6,
                    .width_m = 90e-9,
                    .length_m = 45e-9,
                    .lambda_per_v = 0.1,
                    .cgs_f = 0.03e-15,
                    .cgd_f = 0.02e-15};
  MosfetParams pmos{.is_pmos = true,
                    .vt_v = -0.3,
                    .kp_a_per_v2 = 225e-6,
                    .width_m = 180e-9,
                    .length_m = 45e-9,
                    .lambda_per_v = 0.1,
                    .cgs_f = 0.06e-15,
                    .cgd_f = 0.04e-15};
};

/// Adds a CMOS inverter between `in` and `out`; `size` scales both device
/// widths (and gate capacitances). Returns the supply node used.
NodeId add_inverter(Circuit& ckt, const std::string& name, NodeId in,
                    NodeId out, NodeId vdd, const Technology45nm& tech,
                    double size = 1.0);

/// Netlists a distributed line as `segments` RC pi-sections between `in`
/// and `out`, with the lumped series resistance split across both ends.
/// Node names are prefixed with `name`.
void add_distributed_line(Circuit& ckt, const std::string& name, NodeId in,
                          NodeId out, const core::LineRlc& line,
                          double length_m, int segments);

/// The paper's Fig. 11 benchmark: pulse -> driver inverter -> MWCNT line ->
/// receiver inverter -> load inverter. Returns the probe nodes.
struct Fig11Circuit {
  Circuit ckt;
  NodeId input = 0;        ///< Pulse at the driver gate.
  NodeId line_in = 0;      ///< Driver output / line near end.
  NodeId line_out = 0;     ///< Line far end / receiver gate.
  NodeId output = 0;       ///< Receiver inverter output.
  double vdd_v = 1.0;
  double pulse_period_s = 0.0;
  double pulse_width_s = 0.0;
};

struct Fig11Options {
  core::LineRlc line;
  double length_m = 500e-6;
  int segments = 20;
  double driver_size = 8.0;
  double receiver_size = 1.0;
  Technology45nm tech;
  /// Pulse timing; <= 0 means auto-scale to the line's RC time constant.
  double pulse_width_s = -1.0;
};

Fig11Circuit build_fig11_benchmark(const Fig11Options& opt);

/// Simulates the Fig. 11 benchmark and returns the average 50% propagation
/// delay from driver input to receiver output [s].
double measure_fig11_delay(const Fig11Options& opt,
                           int time_steps = 4000);

}  // namespace cnti::circuit
