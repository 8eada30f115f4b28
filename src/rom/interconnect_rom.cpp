#include "rom/interconnect_rom.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "numerics/interp.hpp"
#include "obs/obs.hpp"

namespace cnti::rom {

namespace {

using circuit::BusConfig;
using circuit::BusCrosstalkResult;

/// Builds the reduced model for the bare bus with head/far ports.
ReducedModel reduce_bus(const BusConfig& cfg, PrimaOptions opt) {
  const StateSpace ss = extract_bus_state_space(cfg.topology()).ss;

  if (opt.order <= 0) {
    // Default budget: three block moments' worth of columns (ports at both
    // ends of every line), capped well below the full order so the
    // reduction stays a reduction. Empirically this holds the 16 x 128
    // paper bus to ~1e-4 % noise/delay error vs the full transient.
    opt.order = std::min(6 * cfg.lines, ss.size / 2);
  }
  if (opt.expansion_rad_per_s <= 0.0) {
    // The bare network is held up only by g_min (the drivers that ground
    // it are attached per scenario), so expand about the analysis window's
    // corner frequency instead of DC.
    opt.expansion_rad_per_s = 20.0 / circuit::bus_settle_time_s(cfg);
  }
  return prima_reduce(ss, opt);
}

}  // namespace

BusStateSpace extract_bus_state_space(const circuit::BusTopology& topology) {
  circuit::BusNetlist bus = circuit::build_bus_netlist(topology);
  StateSpaceOptions ss_opt;
  ss_opt.include_sources = false;  // the bare bus has none
  for (int l = 0; l < topology.lines; ++l) {
    ss_opt.ports.push_back(
        {"head" + std::to_string(l), bus.head[static_cast<std::size_t>(l)]});
  }
  for (int l = 0; l < topology.lines; ++l) {
    ss_opt.ports.push_back(
        {"far" + std::to_string(l), bus.far[static_cast<std::size_t>(l)]});
  }
  BusStateSpace out;
  out.ss = extract_state_space(bus.ckt, ss_opt);
  for (int l = 0; l < topology.lines; ++l) {
    out.head_states.push_back(
        static_cast<std::size_t>(bus.head[static_cast<std::size_t>(l)] - 1));
    out.far_states.push_back(
        static_cast<std::size_t>(bus.far[static_cast<std::size_t>(l)] - 1));
  }
  return out;
}

BusLanes::BusLanes(const numerics::MatrixD& br, const numerics::MatrixD& lr,
                   int lines, int aggressor, const BusScenario& sc,
                   int time_steps)
    : br_(&br),
      lr_(&lr),
      lr_t_(lr.transpose()),
      lines_(lines),
      aggressor_(aggressor),
      time_steps_(time_steps),
      scenario_(sc) {
  CNTI_EXPECTS(sc.driver_ohm > 0, "BusRom: driver resistance must be > 0");
  CNTI_EXPECTS(sc.receiver_load_f >= 0, "BusRom: load must be >= 0");
  CNTI_EXPECTS(time_steps >= 2, "BusRom: need at least two time steps");
  CNTI_EXPECTS(aggressor >= 0 && aggressor < lines,
               "BusRom: aggressor index out of range");
  CNTI_EXPECTS(static_cast<int>(br.cols()) >= 2 * lines &&
                   static_cast<int>(lr.cols()) >= 2 * lines,
               "BusRom: bare model is missing head/far ports");
  const int nl = lines;

  // Terminations: every head sees its driver's output conductance (the
  // aggressor's Thevenin source becomes a Norton drive at the same port),
  // every far end its receiver load. Port k is input k and output k by
  // construction in extract_bus_state_space.
  loads_.reserve(static_cast<std::size_t>(2 * nl));
  for (int l = 0; l < nl; ++l) {
    loads_.push_back({l, l, 1.0 / sc.driver_ohm, 0.0});
  }
  for (int l = 0; l < nl; ++l) {
    loads_.push_back({nl + l, nl + l, 0.0, sc.receiver_load_f});
  }

  // Norton drive: i(t) = v_edge(t) / R_driver into the aggressor head.
  circuit::PulseWave edge = circuit::bus_edge_wave(sc.vdd_v, sc.edge_time_s);
  edge.v2 /= sc.driver_ohm;
  waves_.assign(br.cols(), circuit::DcWave{0.0});
  waves_[static_cast<std::size_t>(aggressor)] = edge;
}

void BusLanes::begin(std::size_t lanes) {
  // Only the far-end voltages are measured.
  kernel_.begin(lanes, *br_, *lr_, static_cast<std::size_t>(lines_),
                static_cast<std::size_t>(lines_));
}

void BusLanes::load(std::size_t lane, double t_stop_s) {
  fold_terminations(kernel_.g(), kernel_.c(), *br_, lr_t_, loads_);
  kernel_.load_lane(lane, waves_, t_stop_s, t_stop_s / time_steps_);
}

BusCrosstalkResult BusLanes::result(std::size_t lane) const {
  const auto time = kernel_.time(lane);
  BusCrosstalkResult out;
  out.unknowns = static_cast<int>(br_->rows());
  out.worst_victim = aggressor_ == 0 ? 1 : 0;
  for (int l = 0; l < lines_; ++l) {
    if (l == aggressor_) continue;
    const auto vn = kernel_.output(lane, static_cast<std::size_t>(l));
    for (std::size_t i = 0; i < time.size(); ++i) {
      if (std::abs(vn[i]) > std::abs(out.peak_noise_v)) {
        out.peak_noise_v = vn[i];
        out.peak_time_s = time[i];
        out.worst_victim = l;
      }
    }
  }
  // Same sentinel policy as analyze_bus_crosstalk: never-crossed is a
  // quiet NaN, not a negative delay.
  const double crossing = numerics::first_crossing_time(
      time, kernel_.output(lane, static_cast<std::size_t>(aggressor_)),
      scenario_.vdd_v / 2.0, /*rising=*/true);
  out.aggressor_delay_s =
      crossing < 0.0 ? std::numeric_limits<double>::quiet_NaN() : crossing;
  return out;
}

BusCrosstalkResult evaluate_reduced_bus(const ReducedModel& bare, int lines,
                                        int aggressor,
                                        const BusScenario& sc,
                                        double t_stop_s, int time_steps) {
  static const obs::Counter evaluations = obs::counter("cnti.rom.evaluations");
  static const obs::Histogram eval_hist =
      obs::histogram("cnti.rom.evaluate_ns");
  BusLanes bus(bare.br(), bare.lr(), lines, aggressor, sc, time_steps);
  evaluations.add();
  const obs::ObsSpan eval_span("rom.evaluate", "rom", eval_hist);
  bus.begin(1);
  bus.bare_g() = bare.gr();
  bus.bare_c() = bare.cr();
  bus.load(0, t_stop_s);
  bus.run();
  return bus.result(0);
}

BusRom::BusRom(const BusConfig& config, PrimaOptions options)
    : config_(config),
      aggressor_(config.aggressor < 0 ? config.lines / 2 : config.aggressor),
      rom_(reduce_bus(config, options)) {
  CNTI_EXPECTS(aggressor_ >= 0 && aggressor_ < config_.lines,
               "BusRom: aggressor index out of range");
  static const obs::Histogram order_hist = obs::histogram("cnti.rom.order");
  order_hist.record(static_cast<std::uint64_t>(rom_.order()));
}

BusRom::BusRom(const circuit::BusTopology& topology, int aggressor,
               PrimaOptions options)
    : BusRom(circuit::make_bus_config(topology,
                                      circuit::BusDrive{.aggressor =
                                                            aggressor}),
             options) {}

BusScenario BusRom::nominal_scenario() const {
  BusScenario sc;
  sc.driver_ohm = config_.driver_ohm;
  sc.receiver_load_f = config_.receiver_load_f;
  sc.vdd_v = config_.vdd_v;
  sc.edge_time_s = config_.edge_time_s;
  return sc;
}

double BusRom::window_s(const BusScenario& sc) const {
  // Same window/grid as the full transient of the matching BusConfig —
  // every scenario field that enters the settle estimate (driver strength,
  // edge time *and receiver load*) is propagated.
  circuit::BusDrive drive;
  drive.aggressor = aggressor_;
  drive.driver_ohm = sc.driver_ohm;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  drive.receiver_load_f = sc.receiver_load_f;
  return circuit::bus_settle_time_s(config_.topology(), drive);
}

BusCrosstalkResult BusRom::evaluate(const BusScenario& sc,
                                    int time_steps) const {
  return evaluate_reduced_bus(rom_, config_.lines, aggressor_, sc,
                              window_s(sc), time_steps);
}

}  // namespace cnti::rom
