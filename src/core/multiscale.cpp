#include "core/multiscale.hpp"

#include <cmath>
#include <utility>

#include "common/units.hpp"

namespace cnti::core {

void validate_multiscale_input(const MultiscaleInput& in) {
  CNTI_EXPECTS(in.outer_diameter_nm >= 1.0, "diameter must be >= 1 nm");
  CNTI_EXPECTS(in.length_um > 0, "length must be positive");
  // A negative load would run and return a physically wrong (shorter)
  // delay; 0 is a valid open far end.
  CNTI_EXPECTS(std::isfinite(in.load_capacitance_ff) &&
                   in.load_capacitance_ff >= 0.0,
               "workload.load_capacitance_ff must be finite and >= 0");
}

ChannelStage doping_channel_stage(atomistic::DopantSpecies species,
                                  double concentration) {
  const atomistic::ChargeTransferDoping doping(species, concentration);
  ChannelStage out;
  out.fermi_shift_ev = doping.stable_fermi_shift_ev();
  out.channels_per_shell = doping.channels_per_shell_simple();
  return out;
}

MwcntSpec multiscale_line_spec(const MultiscaleInput& in,
                               const ChannelStage& channels,
                               double electrostatic_cap_f_per_m) {
  validate_multiscale_input(in);
  MwcntSpec spec;
  spec.outer_diameter_m = units::from_nm(in.outer_diameter_nm);
  spec.channels_per_shell = channels.channels_per_shell;
  spec.temperature_k = in.temperature_k;
  spec.defect_spacing_m = in.defect_spacing_um > 0
                              ? units::from_um(in.defect_spacing_um)
                              : -1.0;
  spec.contact_resistance_ohm = units::from_kOhm(in.contact_resistance_kohm);
  spec.electrostatic_capacitance_f_per_m = electrostatic_cap_f_per_m;
  return spec;
}

DriverLineLoad multiscale_driver_line_load(const MultiscaleInput& in,
                                           const MwcntLine& line) {
  DriverLineLoad cfg;
  cfg.driver_resistance_ohm = units::from_kOhm(in.driver_resistance_kohm);
  cfg.line = line.rlc();
  cfg.length_m = units::from_um(in.length_um);
  cfg.load_capacitance_f = in.load_capacitance_ff * 1e-15;
  return cfg;
}

MultiscaleReport assemble_multiscale_report(const MultiscaleInput& in,
                                            const ChannelStage& channels,
                                            const MwcntLine& line,
                                            double delay_s,
                                            std::string delay_method) {
  MultiscaleReport out;
  out.fermi_shift_ev = channels.fermi_shift_ev;
  out.channels_per_shell = channels.channels_per_shell;
  out.electrostatic_cap_af_per_um = units::to_aF_per_um(
      line.spec().electrostatic_capacitance_f_per_m);
  const double length_m = units::from_um(in.length_um);
  out.shells = line.shell_count();
  out.mfp_um = units::to_um(line.shell_mfp(0));
  out.resistance_kohm = units::to_kOhm(line.resistance(length_m));
  out.capacitance_ff = units::to_fF(line.capacitance_per_m() * length_m);
  out.delay_ps = units::to_ps(delay_s);
  out.delay_method = std::move(delay_method);
  return out;
}

MultiscaleReport run_multiscale_flow(const MultiscaleInput& in,
                                     const MultiscaleHooks& hooks) {
  validate_multiscale_input(in);

  // --- Atomistic stage: doping -> Fermi shift -> channels per shell. ---
  const ChannelStage channels =
      doping_channel_stage(in.dopant, in.dopant_concentration);

  // --- Materials + compact stage (C_E from the hook or the analytic
  // --- environment model). ---
  const double ce = hooks.extract_capacitance
                        ? hooks.extract_capacitance(in.environment)
                        : environment_capacitance(in.environment);
  const MwcntLine line(multiscale_line_spec(in, channels, ce));

  // --- Circuit stage. ---
  const DriverLineLoad cfg = multiscale_driver_line_load(in, line);
  double delay_s = 0.0;
  std::string method;
  if (hooks.simulate_delay) {
    delay_s = hooks.simulate_delay(cfg);
    method = "hook";
  } else {
    delay_s = delay_50_estimate(cfg);
    method = "elmore";
  }
  return assemble_multiscale_report(in, channels, line, delay_s,
                                    std::move(method));
}

}  // namespace cnti::core
