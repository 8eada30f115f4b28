// ROM-accelerated coupled-bus crosstalk: the fast path behind
// analyze_bus_crosstalk-style design-space sweeps. The bare N-line bus
// (ladders + coupling, no drivers/loads) is extracted once with a
// current/voltage port at every line head and far end and PRIMA-reduced to
// a q x q model; each driver-strength / receiver-load scenario then folds
// its terminations into the reduced matrices (rank-1 updates), replaces
// the aggressor's Thevenin driver by its Norton equivalent at the head
// port, and runs the whole transient on the small system — hundreds of
// times cheaper than a sparse-MNA transient with 2000+ unknowns, on the
// identical stimulus and time grid.
//
// evaluate() is const and thread-safe: reduce once per topology, sweep
// scenarios in parallel through core::run_sweep / numerics::ThreadPool.
#pragma once

#include "circuit/crosstalk.hpp"
#include "rom/lane_kernel.hpp"
#include "rom/prima.hpp"

namespace cnti::rom {

/// One driver/load/stimulus scenario evaluated against a reduced bus.
struct BusScenario {
  double driver_ohm = 5e3;           ///< Every line's driver resistance.
  double receiver_load_f = 0.2e-15;  ///< Shunt load at every far end.
  double vdd_v = 1.0;
  double edge_time_s = 20e-12;
};

/// Bare-bus descriptor system with head/far ports plus the per-line state
/// indices of the port nodes (node id - 1: the bare bus has no vsource or
/// inductor branches, so states are exactly the non-ground node voltages).
/// The extraction BusRom and ParametrizedBusRom share: ports are
/// head0..head{N-1} then far0..far{N-1}, each both an input and an output.
struct BusStateSpace {
  StateSpace ss;
  std::vector<std::size_t> head_states, far_states;
};

/// Builds the bare bus netlist of `topology` and extracts its ported
/// descriptor system (see BusStateSpace for the port convention).
BusStateSpace extract_bus_state_space(const circuit::BusTopology& topology);

/// One driver/load/stimulus scenario bound to the lane kernel: the port
/// terminations, the aggressor's Norton drive and the noise/delay
/// measurement that every lane of a group shares. A group is begin(),
/// then per lane: write the lane's *bare* reduced Gr/Cr (ports as in
/// BusStateSpace) into bare_g()/bare_c() and load() it; then run() and
/// read result(lane). The object owns the kernel's buffers, so reused
/// group after group it allocates nothing past the first group. Not
/// thread-safe: give each worker its own.
class BusLanes {
 public:
  /// Validates the scenario against a bare bus model with input matrix
  /// `br` and output matrix `lr`, which must outlive this object.
  BusLanes(const numerics::MatrixD& br, const numerics::MatrixD& lr,
           int lines, int aggressor, const BusScenario& scenario,
           int time_steps);
  // A loaded kernel holds the address of waves_.
  BusLanes(const BusLanes&) = delete;
  BusLanes& operator=(const BusLanes&) = delete;

  const BusScenario& scenario() const { return scenario_; }
  /// The input matrix the lanes were bound to.
  const numerics::MatrixD& br() const { return *br_; }

  /// Starts a group of `lanes` (1..kLanes) models.
  void begin(std::size_t lanes);
  numerics::MatrixD& bare_g() { return kernel_.g(); }
  numerics::MatrixD& bare_c() { return kernel_.c(); }
  /// Folds the terminations into the staged bare model (the aggressor's
  /// Thevenin driver becomes its Norton equivalent at the head port) and
  /// loads it as `lane`, simulating [0, t_stop_s] on time_steps steps.
  void load(std::size_t lane, double t_stop_s);
  void run() { kernel_.run(); }
  /// Worst victim noise and the aggressor 50% delay (quiet NaN if never
  /// crossed) of `lane`, field-for-field comparable with
  /// analyze_bus_crosstalk.
  circuit::BusCrosstalkResult result(std::size_t lane) const;

 private:
  const numerics::MatrixD* br_;
  const numerics::MatrixD* lr_;
  numerics::MatrixD lr_t_;
  int lines_ = 0;
  int aggressor_ = 0;
  int time_steps_ = 0;
  BusScenario scenario_;
  std::vector<PortTermination> loads_;
  std::vector<circuit::Waveform> waves_;
  LaneKernel kernel_;
};

/// Runs one driver/load/stimulus scenario on a *bare* reduced bus model:
/// the one-lane call of BusLanes. Shared by BusRom::evaluate and the
/// benchmark's ROM probes.
circuit::BusCrosstalkResult evaluate_reduced_bus(const ReducedModel& bare,
                                                 int lines, int aggressor,
                                                 const BusScenario& scenario,
                                                 double t_stop_s,
                                                 int time_steps);

class BusRom {
 public:
  /// Reduces the bare coupled bus of `config` (its driver/load/stimulus
  /// fields only define the nominal scenario and the simulated window).
  /// `options.order <= 0` picks a budget from the bus size; an
  /// `expansion_rad_per_s` of 0 is replaced by the bus's settle-time
  /// corner, because the bare network's G alone is g_min-singular.
  explicit BusRom(const circuit::BusConfig& config,
                  PrimaOptions options = {.order = 0});

  /// Topology-keyed construction — the scenario engine's cache seam: the
  /// reduction (and its expansion point) depends only on `topology` plus
  /// default-BusDrive nominals, so a memo cache keyed on (topology,
  /// aggressor) content shares one BusRom across every
  /// driver/load/stimulus scenario of a batch. `aggressor` only selects
  /// the driven port for evaluate() (-1 = centre); it does not affect the
  /// reduction. Equivalent to BusRom(circuit::make_bus_config(topology,
  /// circuit::BusDrive{.aggressor = aggressor})).
  explicit BusRom(const circuit::BusTopology& topology, int aggressor = -1,
                  PrimaOptions options = {.order = 0});

  int full_order() const { return rom_.full_order(); }
  int order() const { return rom_.order(); }
  int lines() const { return config_.lines; }
  const ReducedModel& model() const { return rom_; }

  /// The scenario implied by the construction config.
  BusScenario nominal_scenario() const;

  /// Runs the scenario transient on the reduced model; field-for-field
  /// comparable with analyze_bus_crosstalk of the matching full config.
  circuit::BusCrosstalkResult evaluate(const BusScenario& scenario,
                                       int time_steps = 1500) const;

  /// The transient window evaluate() simulates for `scenario`: exactly
  /// circuit::bus_settle_time_s of the construction topology under the
  /// scenario's drive — including its receiver load, so the ROM and the
  /// full-MNA path can never disagree on the grid.
  double window_s(const BusScenario& scenario) const;

 private:
  circuit::BusConfig config_;
  int aggressor_ = 0;
  ReducedModel rom_;
};

}  // namespace cnti::rom
