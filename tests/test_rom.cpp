// Tests for the PRIMA model-order-reduction subsystem: state-space
// extraction contracts, exactness on systems the reduced order can
// represent fully, differential cross-validation against ac_analysis
// (frequency domain) and the sparse-MNA transient engine (time domain),
// stability/passivity property tests (reduced poles in the left
// half-plane), port-termination folding, and deterministic parallel
// scenario sweeps over a shared reduced model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <complex>
#include <cstring>
#include <memory>
#include <limits>
#include <string>

#include "circuit/ac.hpp"
#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "circuit/mna.hpp"
#include "core/multiscale.hpp"
#include "core/mwcnt_line.hpp"
#include "core/sweep_engine.hpp"
#include "numerics/eig.hpp"
#include "numerics/interp.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "rom/interconnect_rom.hpp"
#include "rom/parametrized_rom.hpp"
#include "rom/prima.hpp"
#include "scenario/engine.hpp"
#include "scenario/statistical.hpp"

namespace cir = cnti::circuit;
namespace cc = cnti::core;
namespace rom = cnti::rom;
namespace sc = cnti::scenario;

namespace {

// --- Shared fixtures -----------------------------------------------------

/// vsource -> R -> C lowpass; full MNA order 3 (2 nodes + 1 branch).
cir::Circuit rc_lowpass(cir::NodeId* out) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  *out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, *out, 1e3);
  ckt.add_capacitor("c1", *out, 0, 1e-12);
  return ckt;
}

/// Driver + distributed MWCNT line + load, the golden RC line of the AC
/// suite.
cir::Circuit mwcnt_line_circuit(double nc, cir::NodeId* out) {
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  *out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  cir::add_distributed_line(ckt, "ln", in, *out,
                            cc::make_paper_mwcnt(10, nc, 100e3).rlc(),
                            200e-6, 12);
  ckt.add_capacitor("cl", *out, 0, 1e-15);
  return ckt;
}

rom::ReducedModel reduce_observing(const cir::Circuit& ckt, cir::NodeId out,
                                   int order) {
  rom::StateSpaceOptions opt;
  opt.observe = {out};
  return rom::prima_reduce(rom::extract_state_space(ckt, opt),
                           {.order = order});
}

double max_db_error(const cir::AcResult& a, const cir::AcResult& b,
                    double f_max_hz) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.frequency_hz.size(); ++i) {
    if (a.frequency_hz[i] > f_max_hz) break;
    worst = std::max(worst, std::abs(a.magnitude_db(i) - b.magnitude_db(i)));
  }
  return worst;
}

cir::BusConfig paper_bus(int lines, int segments) {
  cir::BusConfig cfg;
  cfg.line = cc::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 100e-6;
  cfg.lines = lines;
  cfg.segments = segments;
  return cfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- State-space extraction contracts ------------------------------------

TEST(StateSpace, RejectsNonlinearAndDegenerateCircuits) {
  cir::Circuit mos;
  const auto d = mos.node("d");
  mos.add_vsource("v", d, 0, cir::DcWave{1.0});
  mos.add_mosfet("m1", d, mos.node("g"), 0, cir::MosfetParams{});
  EXPECT_THROW(rom::extract_state_space(mos), cnti::PreconditionError);

  cir::Circuit no_inputs;
  no_inputs.add_resistor("r", no_inputs.node("a"), 0, 1e3);
  EXPECT_THROW(rom::extract_state_space(no_inputs),
               cnti::PreconditionError);

  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  rom::StateSpaceOptions bad_port;
  bad_port.ports = {{"p", 99}};
  EXPECT_THROW(rom::extract_state_space(ckt, bad_port),
               cnti::PreconditionError);
}

TEST(StateSpace, ShapesNamesAndIndexLookup) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  rom::StateSpaceOptions opt;
  opt.observe = {out};
  opt.ports = {{"load_port", out}};
  const auto ss = rom::extract_state_space(ckt, opt);
  EXPECT_EQ(ss.nodes, 2);
  EXPECT_EQ(ss.size, 3);  // 2 nodes + 1 vsource branch
  ASSERT_EQ(ss.inputs(), 2);   // vin + port
  ASSERT_EQ(ss.outputs(), 2);  // port + observed node
  EXPECT_EQ(ss.input_index("vin"), 0);
  EXPECT_EQ(ss.input_index("load_port"), 1);
  EXPECT_EQ(ss.output_index("load_port"), 0);
  EXPECT_EQ(ss.output_index("out"), 1);
  EXPECT_THROW(ss.input_index("nope"), cnti::PreconditionError);
  EXPECT_EQ(ss.g.rows(), 3u);
  EXPECT_EQ(ss.c.rows(), 3u);
  EXPECT_EQ(ss.b.rows(), 3u);
  EXPECT_EQ(ss.l.cols(), 2u);
}

TEST(StateSpace, PassiveStructure) {
  // G + G^T PSD and C = C^T PSD are what PRIMA's stability guarantee
  // rests on; probe both quadratic forms with a deterministic pseudo-
  // random vector sweep.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  ckt.add_resistor("r1", in, mid, 50.0);
  ckt.add_inductor("l1", mid, out, 1e-9);
  ckt.add_capacitor("c1", out, 0, 2e-12);
  ckt.add_capacitor("c2", mid, out, 1e-12);
  const auto ss = rom::extract_state_space(ckt);
  const std::size_t n = static_cast<std::size_t>(ss.size);
  unsigned state = 42u;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(n);
    for (auto& v : x) {
      state = state * 1664525u + 1013904223u;
      v = static_cast<double>(state >> 8) / (1u << 24) - 0.5;
    }
    const auto gx = ss.g * x;
    const auto cx = ss.c * x;
    double xgx = 0.0, xcx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      xgx += x[i] * gx[i];
      xcx += x[i] * cx[i];
    }
    EXPECT_GE(xgx, -1e-15) << "G + G^T not PSD";
    EXPECT_GE(xcx, -1e-24) << "C not PSD";
    // C symmetry: compare against the transposed quadratic pairing on a
    // second vector.
    std::vector<double> y(n);
    for (auto& v : y) {
      state = state * 1664525u + 1013904223u;
      v = static_cast<double>(state >> 8) / (1u << 24) - 0.5;
    }
    const auto cy = ss.c * y;
    double xcy = 0.0, ycx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      xcy += x[i] * cy[i];
      ycx += y[i] * cx[i];
    }
    EXPECT_NEAR(xcy, ycx, 1e-24);
  }
}

// --- Exactness at full order ---------------------------------------------

TEST(Prima, RcLowPassIsExactAtMatchingOrder) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  const auto rm = reduce_observing(ckt, out, 3);
  EXPECT_LE(rm.order(), 3);
  EXPECT_EQ(rm.full_order(), 3);

  const auto freqs = cir::log_frequency_grid(1e6, 1e11, 10);
  const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
  const auto got = rm.transfer_sweep(freqs, 0, 0);
  EXPECT_LT(max_db_error(ref, got, 1e11), 1e-9);

  // One pole at exactly -1/RC; Elmore delay RC.
  const auto poles = rm.poles();
  ASSERT_EQ(poles.size(), 1u);
  EXPECT_NEAR(poles[0].real(), -1.0e9, 1e-3 * 1e9);
  EXPECT_NEAR(poles[0].imag(), 0.0, 1.0);
  EXPECT_NEAR(rm.elmore_delay(0, 0), 1e-9, 1e-15);

  // Moments: H(s) = 1/(1 + sRC) => m0 = 1, m1 = -RC. The engine-matching
  // g_min floor shifts both by a ~2 R g_min = 2e-9 relative part.
  const auto m = rm.moments(2);
  EXPECT_NEAR(m[0](0, 0), 1.0, 1e-8);
  EXPECT_NEAR(m[1](0, 0), -1e-9, 1e-17);
}

TEST(Prima, ElmoreDelayMatchesHandComputedLadderSum) {
  // 3-stage RC ladder behind a driver: Elmore = sum_i R_upstream,i * C_i.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  const double r[3] = {100.0, 200.0, 400.0};
  const double c[3] = {1e-15, 2e-15, 0.5e-15};
  cir::NodeId prev = in;
  for (int s = 0; s < 3; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, r[s]);
    ckt.add_capacitor("c" + is, n, 0, c[s]);
    prev = n;
  }
  double expected = 0.0;
  double r_up = 0.0;
  for (int s = 0; s < 3; ++s) {
    r_up += r[s];
    expected += r_up * c[s];
  }  // Elmore sum: R_upstream * C at every tap.
  const auto rm = reduce_observing(ckt, prev, 4);
  EXPECT_NEAR(rm.elmore_delay(0, 0), expected, 1e-6 * expected);
}

TEST(Prima, KrylovDeflationStopsAtFullOrder) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  // Asking for order 16 on a full order 3 system must deflate, not pad.
  const auto rm = reduce_observing(ckt, out, 16);
  EXPECT_LE(rm.order(), 3);
  const auto freqs = cir::log_frequency_grid(1e6, 1e10, 5);
  const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
  EXPECT_LT(max_db_error(ref, rm.transfer_sweep(freqs, 0, 0), 1e10), 1e-9);
}

// --- Frequency-domain cross-validation (golden RC / RLC lines) -----------

TEST(Prima, MwcntRcLineMatchesAcAnalysisInBand) {
  // ROM vs ac_analysis on the golden 200 um doped MWCNT line: <= 0.1 dB
  // up to well past the 3 dB bandwidth (the matched-moment band).
  for (const double nc : {2.0, 10.0}) {
    cir::NodeId out = 0;
    const auto ckt = mwcnt_line_circuit(nc, &out);
    const auto rm = reduce_observing(ckt, out, 10);
    const auto freqs = cir::log_frequency_grid(1e6, 1e12, 20);
    const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
    const auto got = rm.transfer_sweep(freqs, 0, 0);
    const double f3db = cir::bandwidth_3db(ref);
    ASSERT_GT(f3db, 0.0);
    EXPECT_LT(max_db_error(ref, got, 3.0 * f3db), 0.1)
        << "Nc = " << nc << ", f3db = " << f3db;
    // The interoperable AcResult lets bandwidth_3db run on ROM output.
    EXPECT_NEAR(cir::bandwidth_3db(got), f3db, 0.02 * f3db);
  }
}

TEST(Prima, RlcLadderWithKineticInductanceMatchesAcAnalysis) {
  // Series-L ladder (kinetic inductance visible at high frequency): the
  // descriptor form carries the inductor branches, so the ROM must track
  // the RLC response, not just the RC envelope.
  const auto line = cc::make_paper_mwcnt(10, 2, 0.0).rlc();
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("vin", in, 0, cir::DcWave{0.0});
  const int segs = 8;
  const auto parts = cc::discretize_line(line, 10e-6, segs);
  cir::NodeId prev = in;
  for (int s = 0; s < segs; ++s) {
    const std::string is = std::to_string(s);
    const auto mid = ckt.node("m" + is);
    const auto nxt = (s == segs - 1) ? out : ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, mid,
                     parts[static_cast<std::size_t>(s)].resistance_ohm);
    ckt.add_inductor("l" + is, mid, nxt,
                     line.inductance_per_m * 10e-6 / segs);
    ckt.add_capacitor("c" + is, nxt, 0,
                      parts[static_cast<std::size_t>(s)].capacitance_f);
    prev = nxt;
  }
  const auto rm = reduce_observing(ckt, out, 20);
  const auto freqs = cir::log_frequency_grid(1e8, 2e11, 20);
  const auto ref = cir::ac_analysis(ckt, "vin", out, freqs);
  const auto got = rm.transfer_sweep(freqs, 0, 0);
  EXPECT_LT(max_db_error(ref, got, 2e11), 0.1);
}

// --- Stability property tests --------------------------------------------

TEST(Prima, ReducedPolesStayInLeftHalfPlane) {
  // Congruence projection of a passive network: every finite pole must
  // satisfy Re(p) <= 0 at any order budget, including aggressive
  // truncation.
  std::vector<std::pair<std::string, cir::Circuit>> circuits;
  {
    cir::NodeId out = 0;
    circuits.emplace_back("mwcnt_rc", mwcnt_line_circuit(4.0, &out));
  }
  {
    cir::Circuit rlc;
    const auto in = rlc.node("in");
    const auto mid = rlc.node("mid");
    const auto out = rlc.node("out");
    rlc.add_vsource("vin", in, 0, cir::DcWave{0.0});
    rlc.add_resistor("r1", in, mid, 10.0);
    rlc.add_inductor("l1", mid, out, 1e-9);
    rlc.add_capacitor("c1", out, 0, 1e-12);
    circuits.emplace_back("series_rlc", std::move(rlc));
  }
  for (auto& [name, ckt] : circuits) {
    for (const int order : {2, 4, 8, 16}) {
      const auto rm = reduce_observing(ckt, ckt.node("out"), order);
      EXPECT_TRUE(rm.stable()) << name << " at order " << order;
      for (const auto& p : rm.poles()) {
        EXPECT_LE(p.real(), 1e-9 * std::abs(p))
            << name << " order " << order << " pole " << p.real();
      }
    }
  }
}

TEST(Prima, TerminatedBusRomStaysStable) {
  // Termination folding is a congruence update of a passive network, so
  // stability must survive any nonnegative driver/load attachment.
  const rom::BusRom bus(paper_bus(4, 12));
  for (const double r : {500.0, 5e3, 50e3}) {
    for (const double cl : {0.0, 0.2e-15, 5e-15}) {
      std::vector<rom::PortTermination> loads;
      for (int l = 0; l < 4; ++l) loads.push_back({l, l, 1.0 / r, 0.0});
      for (int l = 0; l < 4; ++l) loads.push_back({4 + l, 4 + l, 0.0, cl});
      EXPECT_TRUE(bus.model().terminated(loads).stable())
          << "r = " << r << ", cl = " << cl;
    }
  }
}

// --- Port termination folding --------------------------------------------

TEST(Prima, PortTerminationReproducesInCircuitLoad) {
  // Reduce a bare R line with a port at its far end, fold a load C into
  // the reduced model, and compare against the circuit with the same C
  // netlisted before extraction.
  cir::Circuit bare;
  const auto in = bare.node("in");
  const auto out = bare.node("out");
  bare.add_vsource("vin", in, 0, cir::DcWave{0.0});
  bare.add_resistor("r1", in, out, 1e3);

  cir::Circuit loaded = bare;
  loaded.add_capacitor("cl", out, 0, 1e-12);

  rom::StateSpaceOptions opt;
  opt.ports = {{"far", out}};
  const auto rm_bare = rom::prima_reduce(
      rom::extract_state_space(bare, opt), {.order = 4});
  const auto rm_terminated = rm_bare.terminated(
      {{rm_bare.input_index("far"), rm_bare.output_index("far"), 0.0,
        1e-12}});

  const auto freqs = cir::log_frequency_grid(1e6, 1e10, 10);
  const auto ref = cir::ac_analysis(loaded, "vin", out, freqs);
  // Input 0 is vin, output 0 the port voltage.
  const auto got = rm_terminated.transfer_sweep(freqs, 0, 0);
  EXPECT_LT(max_db_error(ref, got, 1e10), 1e-6);
}

// --- Time-domain cross-validation against the MNA engine -----------------

TEST(Prima, StepResponseMatchesTransientEngineOnRcLadder) {
  // 40-stage RC ladder behind a pulsed driver: ROM transient vs the MNA
  // engine on the identical time grid.
  cir::Circuit ckt;
  const auto in = ckt.node("in");
  cir::PulseWave pulse = cir::bus_edge_wave(1.0, 20e-12);
  ckt.add_vsource("vin", in, 0, pulse);
  cir::NodeId prev = in;
  const int stages = 40;
  for (int s = 0; s < stages; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, 100.0);
    ckt.add_capacitor("c" + is, n, 0, 2e-15);
    prev = n;
  }
  const cir::NodeId out = prev;

  cir::TransientOptions topt;
  topt.t_stop_s = 2e-9;
  topt.dt_s = 2e-12;
  const auto full = cir::simulate_transient(ckt, topt);

  const auto rm = reduce_observing(ckt, out, 12);
  const auto red =
      rm.simulate({pulse}, topt.t_stop_s, topt.dt_s);

  ASSERT_EQ(red.time.size(), full.time().size());
  const auto& vf = full.voltage(out);
  const auto& vr = red.outputs[0];
  double worst = 0.0;
  for (std::size_t i = 0; i < red.time.size(); ++i) {
    worst = std::max(worst, std::abs(vf[i] - vr[i]));
  }
  EXPECT_LT(worst, 1e-3);  // 0.1% of the 1 V swing, everywhere

  const double d_full = cnti::numerics::first_crossing_time(
      full.time(), vf, 0.5, /*rising=*/true);
  const double d_rom = cnti::numerics::first_crossing_time(
      red.time, vr, 0.5, /*rising=*/true);
  EXPECT_NEAR(d_rom, d_full, 0.002 * d_full);
}

class BusRomVsFullMna : public ::testing::TestWithParam<int> {};

TEST_P(BusRomVsFullMna, NoiseAndDelayWithinOnePercent) {
  // Acceptance-grade differential: ROM evaluation vs the full sparse-MNA
  // transient on nominal and off-nominal driver/load scenarios.
  const int lines = GetParam();
  const int segments = lines >= 16 ? 128 : 48;
  cir::BusConfig cfg = paper_bus(lines, segments);
  const rom::BusRom bus(cfg);
  EXPECT_LT(bus.order(), bus.full_order() / 4);

  struct Scenario {
    double driver_ohm;
    double load_f;
  };
  for (const auto& sc : {Scenario{5e3, 0.2e-15}, Scenario{1.5e3, 1e-15}}) {
    cir::BusConfig full_cfg = cfg;
    full_cfg.driver_ohm = sc.driver_ohm;
    full_cfg.receiver_load_f = sc.load_f;
    const auto full = cir::analyze_bus_crosstalk(full_cfg, 600);

    rom::BusScenario rsc;
    rsc.driver_ohm = sc.driver_ohm;
    rsc.receiver_load_f = sc.load_f;
    const auto red = bus.evaluate(rsc, 600);

    EXPECT_EQ(red.worst_victim, full.worst_victim);
    EXPECT_NEAR(red.peak_noise_v, full.peak_noise_v,
                0.01 * std::abs(full.peak_noise_v));
    EXPECT_NEAR(red.aggressor_delay_s, full.aggressor_delay_s,
                0.01 * full.aggressor_delay_s);
  }
}

INSTANTIATE_TEST_SUITE_P(BusSizes, BusRomVsFullMna,
                         ::testing::Values(4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return "lines" + std::to_string(param.param);
                         });

// --- Contracts and error paths -------------------------------------------

TEST(ReducedModel, EvaluationContracts) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  const auto rm = reduce_observing(ckt, out, 3);
  EXPECT_THROW(rm.transfer(1e9, 5, 0), cnti::PreconditionError);
  EXPECT_THROW(rm.transfer(1e9, 0, 5), cnti::PreconditionError);
  EXPECT_THROW(rm.transfer(-1.0, 0, 0), cnti::PreconditionError);
  EXPECT_THROW(rm.simulate({}, 1e-9, 1e-12), cnti::PreconditionError);
  EXPECT_THROW(rm.simulate({cir::DcWave{0.0}}, 1e-9, 2e-9),
               cnti::PreconditionError);
  EXPECT_THROW(rm.moments(0), cnti::PreconditionError);
  EXPECT_THROW(rm.terminated({{9, 0, 1e-3, 0.0}}),
               cnti::PreconditionError);
  EXPECT_THROW(rom::prima_reduce(rom::extract_state_space(ckt), {.order = 0}),
               cnti::PreconditionError);
}

TEST(ReducedModel, SingularGrIsReportedOnlyWhenTheDcStartIsSolved) {
  // Gr = 0: no DC path, but the step matrix 2C/dt + Gr is regular. A
  // quiescent start (every input zero at t = 0) needs no DC solve and
  // integrates from x0 = 0; a driven start must solve Gr x0 = Br u(0)
  // and reports the singular Gr.
  cnti::numerics::MatrixD gr(2, 2);
  cnti::numerics::MatrixD cr(2, 2);
  cr(0, 0) = 1e-12;
  cr(1, 1) = 1e-12;
  cnti::numerics::MatrixD br(2, 1);
  br(0, 0) = 1e-3;
  cnti::numerics::MatrixD lr(2, 1);
  lr(0, 0) = 1.0;
  const rom::ReducedModel rm(gr, cr, br, lr, {"u"}, {"v"}, 2);
  const auto tr = rm.simulate(
      {cir::PulseWave{0.0, 1.0, 1e-11, 1e-11, 1e-11, 1.0, 2.0}}, 1e-10,
      1e-12);
  EXPECT_EQ(tr.outputs[0].front(), 0.0);
  EXPECT_GT(tr.outputs[0].back(), 0.0);
  EXPECT_THROW(rm.simulate({cir::DcWave{1.0}}, 1e-10, 1e-12),
               cnti::NumericalError);
}

TEST(ReducedModel, StepResponseSettlesToDcGain) {
  cir::NodeId out = 0;
  const auto ckt = rc_lowpass(&out);
  const auto rm = reduce_observing(ckt, out, 3);
  const auto tr = rm.step_response(0, 20e-9, 4e-12);
  EXPECT_NEAR(tr.outputs[0].back(), 1.0, 1e-6);
  EXPECT_NEAR(tr.outputs[0].front(), 0.0, 1e-12);
  // 50% crossing of the unit step at RC ln 2 (tolerance covers the
  // trapezoidal discretization and linear crossing interpolation).
  const double d = cnti::numerics::first_crossing_time(
      tr.time, tr.outputs[0], 0.5, /*rising=*/true);
  EXPECT_NEAR(d, std::log(2.0) * 1e-9, 0.01 * 1e-9);
}

TEST(BusRom, RejectsDegenerateEdgeTimeAndVdd) {
  // Regression: the ROM path shares the MNA path's stimulus, and used to
  // return the same silent noise ~3e-14 V / NaN delay for a zero edge and
  // noise 0 for an infinite vdd. Both must now throw, naming the field.
  const rom::BusRom bus(paper_bus(4, 8));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [&](const rom::BusScenario& sc,
                                   const std::string& field) {
    try {
      (void)bus.evaluate(sc, 100);
      ADD_FAILURE() << "no error for bad " << field;
    } catch (const cnti::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(field + " must be"),
                std::string::npos)
          << e.what();
    }
  };
  for (const double edge : {0.0, -20e-12, inf, nan}) {
    rom::BusScenario sc;
    sc.edge_time_s = edge;
    expect_rejected(sc, "edge_time_s");
  }
  for (const double vdd : {0.0, -1.0, inf, nan}) {
    rom::BusScenario sc;
    sc.vdd_v = vdd;
    expect_rejected(sc, "vdd_v");
  }
}

// --- Deterministic parallel scenario sweeps ------------------------------

TEST(RomSweep, ParallelScenarioSweepIsThreadCountInvariant) {
  // One shared reduced bus evaluated across a driver x load grid through
  // the sweep engine: results must be bit-identical at any thread count
  // (and data-race-free under TSan).
  const rom::BusRom bus(paper_bus(4, 16));
  const cnti::core::SweepGrid grid(
      {{"driver_ohm", {1e3, 3e3, 10e3}}, {"load_f", {0.1e-15, 0.5e-15}}});
  const auto eval = [&bus](const cnti::core::SweepPoint& p) {
    rom::BusScenario sc;
    sc.driver_ohm = p.at("driver_ohm");
    sc.receiver_load_f = p.at("load_f");
    return bus.evaluate(sc, 200).peak_noise_v;
  };
  const auto serial =
      cnti::core::run_sweep(grid, eval, {.threads = 1, .grain = 1});
  const auto parallel =
      cnti::core::run_sweep(grid, eval, {.threads = 3, .grain = 1});
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
  // And the sweep found a nonzero noise landscape.
  EXPECT_GT(*std::max_element(serial.begin(), serial.end()), 0.0);
}

// --- Projection basis retention ------------------------------------------

TEST(Prima, BasisIsWhatReduceProjectsThrough) {
  // prima_basis returns the orthonormal n x q basis V that prima_reduce
  // projects through (ParametrizedBusRom merges the corner bases): the
  // congruence V^T G V recomputed from it matches the reduced model bit
  // for bit.
  const cir::BusConfig cfg = paper_bus(4, 12);
  const rom::BusStateSpace bus = rom::extract_bus_state_space(cfg.topology());
  rom::PrimaOptions opt;
  opt.order = 12;
  opt.expansion_rad_per_s = 20.0 / cir::bus_settle_time_s(cfg);
  const std::vector<std::vector<double>> v = rom::prima_basis(bus.ss, opt);
  const rom::ReducedModel m = rom::prima_reduce(bus.ss, opt);
  ASSERT_EQ(static_cast<int>(v.size()), m.order());
  const auto dot = [](const std::vector<double>& a,
                      const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };
  std::vector<double> gv(static_cast<std::size_t>(m.full_order()));
  for (std::size_t j = 0; j < v.size(); ++j) {
    ASSERT_EQ(static_cast<int>(v[j].size()), m.full_order());
    bus.ss.g.multiply(v[j], gv);
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(dot(v[i], v[j]), i == j ? 1.0 : 0.0, 1e-12);
      EXPECT_EQ(bits(dot(v[i], gv)), bits(m.gr()(i, j))) << i << "," << j;
    }
  }
}

// --- Corner-anchored parametrized bus ROM --------------------------------

TEST(ParamRom, DegenerateBoxIsBitwiseBusRom) {
  // A fully collapsed box (lo == hi == nominal) has a single corner, keeps
  // that corner's PRIMA basis verbatim and must reproduce the plain
  // topology-keyed BusRom bit for bit — window, transient and all.
  const cir::BusConfig cfg = paper_bus(4, 8);
  const rom::ParametrizedBusRom prom(cfg.topology(), rom::BusTechBox{});
  const rom::BusRom bus(cfg.topology());
  EXPECT_EQ(prom.corners(), 1);
  EXPECT_EQ(prom.order(), bus.order());
  EXPECT_EQ(prom.full_order(), bus.full_order());

  rom::BusScenario sc;
  sc.driver_ohm = 2e3;
  sc.receiver_load_f = 0.5e-15;
  const rom::BusTechPoint nominal;
  EXPECT_EQ(prom.window_s(nominal, sc), bus.window_s(sc));
  const auto a = prom.evaluate(nominal, sc, 300);
  const auto b = bus.evaluate(sc, 300);
  EXPECT_EQ(a.peak_noise_v, b.peak_noise_v);
  EXPECT_EQ(a.peak_time_s, b.peak_time_s);
  EXPECT_EQ(a.worst_victim, b.worst_victim);
  EXPECT_EQ(a.aggressor_delay_s, b.aggressor_delay_s);
}

TEST(ParamRom, CornerAnchorsMatchFullMnaWithinOnePercent) {
  const cir::BusConfig cfg = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.85, 0.90, 0.80};
  box.hi = {1.15, 1.10, 1.20};
  const rom::ParametrizedBusRom prom(cfg.topology(), box);
  EXPECT_EQ(prom.corners(), 8);

  rom::BusScenario sc;
  for (const rom::BusTechPoint& p :
       {box.lo, box.hi, rom::BusTechPoint{0.85, 1.10, 0.80}}) {
    cir::BusDrive drive;
    const auto full = cir::analyze_bus_crosstalk(
        cir::make_bus_config(prom.topology_at(p), drive), 400);
    const auto red = prom.evaluate(p, sc, 400);
    EXPECT_EQ(red.worst_victim, full.worst_victim);
    EXPECT_NEAR(red.peak_noise_v, full.peak_noise_v,
                0.01 * std::abs(full.peak_noise_v));
    EXPECT_NEAR(red.aggressor_delay_s, full.aggressor_delay_s,
                0.01 * full.aggressor_delay_s);
  }
}

TEST(ParamRom, InteriorProbesWithinOnePercentOfMna) {
  // The error-bound policy itself: deterministic non-anchor probes vs the
  // full sparse-MNA transient must stay inside the 1% acceptance band.
  const cir::BusConfig cfg = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.85, 0.90, 0.80};
  box.hi = {1.15, 1.10, 1.20};
  const rom::ParametrizedBusRom prom(cfg.topology(), box);
  const rom::ParamRomValidation v =
      prom.validate_against_mna(rom::BusScenario{}, 4, 400);
  EXPECT_EQ(v.probes, 4);
  EXPECT_LE(v.max_noise_rel_err, 0.01);
  EXPECT_LE(v.max_delay_rel_err, 0.01);
}

TEST(ParamRom, BlendedModelsStayStableAcrossTheBox) {
  // The blend is a congruence projection of a passive network at every
  // interior point, so stability must hold under any nonnegative
  // termination — not just at the anchors.
  const cir::BusConfig cfg = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.7, 0.8, 0.6};
  box.hi = {1.3, 1.2, 1.4};
  const rom::ParametrizedBusRom prom(cfg.topology(), box);
  for (const rom::BusTechPoint& p :
       {rom::BusTechPoint{0.7, 1.2, 1.0}, rom::BusTechPoint{1.0, 1.0, 1.0},
        rom::BusTechPoint{1.29, 0.81, 1.39}}) {
    const rom::ReducedModel m = prom.model_at(p);
    std::vector<rom::PortTermination> loads;
    for (int l = 0; l < 4; ++l) loads.push_back({l, l, 1.0 / 5e3, 0.0});
    for (int l = 0; l < 4; ++l) loads.push_back({4 + l, 4 + l, 0.0, 1e-15});
    EXPECT_TRUE(m.terminated(loads).stable())
        << "r_scale = " << p.resistance_scale;
  }
}

TEST(ParamRom, RejectsBadBoxesAndOutOfBoxPoints) {
  const cir::BusConfig cfg = paper_bus(4, 8);
  rom::BusTechBox zero;
  zero.lo.resistance_scale = 0.0;  // scales must stay positive
  EXPECT_THROW(rom::ParametrizedBusRom(cfg.topology(), zero),
               cnti::PreconditionError);
  rom::BusTechBox inverted;
  inverted.lo.coupling_scale = 1.2;
  inverted.hi.coupling_scale = 0.8;
  EXPECT_THROW(rom::ParametrizedBusRom(cfg.topology(), inverted),
               cnti::PreconditionError);

  rom::BusTechBox box;
  box.lo = {0.9, 0.9, 0.9};
  box.hi = {1.1, 1.1, 1.1};
  const rom::ParametrizedBusRom prom(cfg.topology(), box);
  EXPECT_THROW(prom.model_at({1.2, 1.0, 1.0}), cnti::PreconditionError);
  EXPECT_THROW(prom.evaluate({1.0, 0.5, 1.0}, rom::BusScenario{}, 100),
               cnti::PreconditionError);
}

TEST(ParamRom, WindowTracksTheTechnologyPoint) {
  // The simulated window must be bus_settle_time_s of the *scaled*
  // topology under the scenario's drive — receiver load included — so the
  // ROM grid can never diverge from the full-MNA grid at any sample.
  const cir::BusConfig cfg = paper_bus(4, 8);
  rom::BusTechBox box;
  box.lo = {0.8, 0.8, 0.8};
  box.hi = {1.2, 1.2, 1.2};
  const rom::ParametrizedBusRom prom(cfg.topology(), box);
  rom::BusScenario sc;
  sc.driver_ohm = 3e3;
  sc.receiver_load_f = 40e-15;
  const rom::BusTechPoint p{1.15, 0.85, 1.05};
  cir::BusDrive drive;
  drive.driver_ohm = sc.driver_ohm;
  drive.receiver_load_f = sc.receiver_load_f;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  EXPECT_EQ(prom.window_s(p, sc),
            cir::bus_settle_time_s(prom.topology_at(p), drive));
}

// --- Compressed, budget-sized parametrized ROM -----------------------------

/// The 16 x 128 statistical-study bus (the repository benchmark's
/// stat_study): its box, drive and parametrized ROM, built once.
struct StudyBox {
  cir::BusTopology topology;
  rom::BusTechBox box;
  rom::BusScenario scenario;
  cir::BusDrive drive;
  int time_steps = 200;
  std::unique_ptr<rom::ParametrizedBusRom> prom;
};

const StudyBox& study_box() {
  static const StudyBox study = [] {
    sc::Scenario s;
    s.workload.bus_lines = 16;
    s.workload.bus_segments = 128;
    s.variability.samples = 1;
    s.variability.resistance_span = 0.15;
    s.variability.capacitance_span = 0.10;
    s.variability.coupling_span = 0.20;
    const cc::MultiscaleInput in = sc::to_multiscale_input(s);
    const cc::MwcntLine line(cc::multiscale_line_spec(
        in,
        cc::doping_channel_stage(s.tech.dopant, s.tech.dopant_concentration),
        cc::environment_capacitance(s.tech.environment)));
    StudyBox out;
    out.topology = sc::to_bus_topology(s, line);
    out.box = sc::tech_box(s.variability);
    out.drive = sc::to_bus_drive(s);
    out.scenario.driver_ohm = out.drive.driver_ohm;
    out.scenario.receiver_load_f = out.drive.receiver_load_f;
    out.scenario.vdd_v = out.drive.vdd_v;
    out.scenario.edge_time_s = out.drive.edge_time_s;
    out.prom = std::make_unique<rom::ParametrizedBusRom>(
        out.topology, out.box, out.drive.aggressor);
    return out;
  }();
  return study;
}

/// `count` seeded uniform points of `box` — held out: the sizing probes
/// are a fixed centre-plus-factorial grid, never random draws.
std::vector<rom::BusTechPoint> random_interior_points(
    const rom::BusTechBox& box, int count, std::uint64_t seed) {
  cnti::numerics::Rng rng(seed);
  std::vector<rom::BusTechPoint> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({rng.uniform(box.lo.resistance_scale, box.hi.resistance_scale),
                   rng.uniform(box.lo.capacitance_scale, box.hi.capacitance_scale),
                   rng.uniform(box.lo.coupling_scale, box.hi.coupling_scale)});
  }
  return out;
}

/// Worst relative noise / delay error of `prom` against the full sparse
/// MNA transient over `points`.
std::pair<double, double> worst_error_vs_mna(
    const rom::ParametrizedBusRom& prom, const rom::BusScenario& sc,
    cir::BusDrive drive, const std::vector<rom::BusTechPoint>& points,
    int time_steps) {
  drive.driver_ohm = sc.driver_ohm;
  drive.receiver_load_f = sc.receiver_load_f;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  double noise = 0.0, delay = 0.0;
  for (const rom::BusTechPoint& p : points) {
    const auto red = prom.evaluate(p, sc, time_steps);
    const auto full = cir::analyze_bus_crosstalk(
        cir::make_bus_config(prom.topology_at(p), drive), time_steps);
    EXPECT_EQ(red.worst_victim, full.worst_victim);
    noise = std::max(noise, std::abs(red.peak_noise_v - full.peak_noise_v) /
                                std::abs(full.peak_noise_v));
    delay = std::max(delay,
                     std::abs(red.aggressor_delay_s - full.aggressor_delay_s) /
                         full.aggressor_delay_s);
  }
  return {noise, delay};
}

TEST(SizedRom, StudyBoxHeldOutPointsMeetTheBudgetBelowTheOldOrder) {
  const StudyBox& study = study_box();
  // The old corner order alone (6 x lines = 96) is exceeded by any merged
  // basis of eight corners; the sized model is smaller than one corner's.
  EXPECT_LT(study.prom->order(), 96);
  EXPECT_EQ(study.prom->full_order(), 2096);
  const auto [noise, delay] = worst_error_vs_mna(
      *study.prom, study.scenario, study.drive,
      random_interior_points(study.box, 20, 0x5eedULL), study.time_steps);
  EXPECT_LE(noise, rom::ParametrizedBusRom::kErrorBudget);
  EXPECT_LE(delay, rom::ParametrizedBusRom::kErrorBudget);
}

TEST(SizedRom, TestBoxHeldOutPointsMeetTheBudget) {
  const cir::BusConfig cfg = paper_bus(4, 8);
  const rom::BusTechBox box{{0.85, 0.90, 0.80}, {1.15, 1.10, 1.20}};
  const rom::ParametrizedBusRom prom(cfg.topology(), box);
  EXPECT_LT(prom.order(), prom.full_order());
  rom::BusScenario sc;
  const auto points = random_interior_points(box, 20, 0xb0bULL);
  for (const int steps : {200, 400}) {
    const auto [noise, delay] =
        worst_error_vs_mna(prom, sc, cir::BusDrive{}, points, steps);
    EXPECT_LE(noise, rom::ParametrizedBusRom::kErrorBudget) << steps;
    EXPECT_LE(delay, rom::ParametrizedBusRom::kErrorBudget) << steps;
  }
}

/// Largest |m - m^T| entry and the smallest eigenvalue of (m + m^T) / 2,
/// both relative to the largest |eigenvalue| of that symmetric part.
std::pair<double, double> asymmetry_and_min_eig(const cnti::numerics::MatrixD& m) {
  const std::size_t q = m.rows();
  cnti::numerics::MatrixD sym(q, q);
  double asym = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      sym(i, j) = 0.5 * (m(i, j) + m(j, i));
      asym = std::max(asym, std::abs(m(i, j) - m(j, i)));
    }
  }
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  for (const auto& z : cnti::numerics::eigenvalues(sym)) {
    lo = std::min(lo, z.real());
    hi = std::max(hi, std::abs(z.real()));
  }
  return {asym / hi, lo / hi};
}

TEST(SizedRom, BlendedModelsArePassiveAtInteriorPoints) {
  // Congruence with the orthonormal compressed basis keeps C symmetric
  // PSD and G + G^T PSD at every point of the box, up to rounding.
  const cir::BusConfig cfg = paper_bus(4, 8);
  const rom::BusTechBox small_box{{0.85, 0.90, 0.80}, {1.15, 1.10, 1.20}};
  const rom::ParametrizedBusRom small(cfg.topology(), small_box);
  const StudyBox& study = study_box();
  const std::pair<const rom::ParametrizedBusRom*, rom::BusTechBox> cases[] = {
      {&small, small_box}, {study.prom.get(), study.box}};
  for (const auto& [prom, box] : cases) {
    for (const rom::BusTechPoint& p : random_interior_points(box, 4, 0xc0deULL)) {
      const rom::ReducedModel m = prom->model_at(p);
      const auto [c_asym, c_min] = asymmetry_and_min_eig(m.cr());
      EXPECT_LT(c_asym, 1e-12) << prom->order();
      EXPECT_GT(c_min, -1e-12) << prom->order();
      cnti::numerics::MatrixD g_sum = m.gr();
      g_sum += m.gr().transpose();
      EXPECT_GT(asymmetry_and_min_eig(g_sum).second, -1e-12) << prom->order();
    }
  }
}

TEST(SizedRom, SizingIsDeterministic) {
  const cir::BusConfig cfg = paper_bus(4, 8);
  const rom::BusTechBox box{{0.85, 0.90, 0.80}, {1.15, 1.10, 1.20}};
  const rom::ParametrizedBusRom a(cfg.topology(), box);
  const rom::ParametrizedBusRom b(cfg.topology(), box);
  ASSERT_EQ(a.order(), b.order());
  const rom::BusTechPoint p{1.07, 0.93, 1.11};
  const rom::ReducedModel ma = a.model_at(p);
  const rom::ReducedModel mb = b.model_at(p);
  const auto same_bits = [](const cnti::numerics::MatrixD& x,
                            const cnti::numerics::MatrixD& y) {
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(),
                       x.rows() * x.cols() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(ma.gr(), mb.gr()));
  EXPECT_TRUE(same_bits(ma.cr(), mb.cr()));
  EXPECT_TRUE(same_bits(ma.br(), mb.br()));
  EXPECT_TRUE(same_bits(ma.lr(), mb.lr()));
}

TEST(SizedRom, EveryBuildRecordsItsOrderOnce) {
  const auto builds = [] {
    const auto snap = cnti::obs::metrics_snapshot();
    const auto it = snap.histograms.find("cnti.rom.order");
    return it == snap.histograms.end()
               ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
               : std::pair{it->second.count, it->second.sum_ns};
  };
  const cir::BusConfig cfg = paper_bus(4, 8);
  const auto before = builds();
  const rom::BusRom bus(cfg);
  const rom::ParametrizedBusRom prom(
      cfg.topology(), rom::BusTechBox{{0.9, 1.0, 0.9}, {1.1, 1.0, 1.1}});
  const auto after = builds();
  EXPECT_EQ(after.first - before.first, 2u);
  EXPECT_EQ(after.second - before.second,
            static_cast<std::uint64_t>(bus.order() + prom.order()));
}

// --- Lockstep lane kernel --------------------------------------------------

/// Terminated blended models of the 4 x 8 bus at `points`, and the
/// matching one-lane transients (ReducedModel::simulate).
struct LaneFixture {
  cir::BusConfig cfg = paper_bus(4, 8);
  rom::BusTechBox box{{0.85, 0.90, 0.80}, {1.15, 1.10, 1.20}};
  rom::ParametrizedBusRom prom{cfg.topology(), box};
  std::vector<rom::PortTermination> loads;
  std::vector<cir::Waveform> waves;

  LaneFixture() {
    for (int l = 0; l < 4; ++l) loads.push_back({l, l, 1.0 / 5e3, 0.0});
    for (int l = 0; l < 4; ++l) loads.push_back({4 + l, 4 + l, 0.0, 2e-16});
    waves.assign(8, cir::DcWave{0.0});
    waves[1] = cir::PulseWave{0.0, 2e-4, 0.0, 2e-11, 2e-11, 1.0, 2.0};
  }
  rom::ReducedModel model(const rom::BusTechPoint& p) const {
    return prom.model_at(p).terminated(loads);
  }
};

TEST(LaneKernel, EveryLaneMatchesItsOneLaneRunBitForBit) {
  // Lanes never mix: each lane of a group — full or ragged, whatever its
  // time grid — reproduces the one-lane transient of its model exactly.
  const LaneFixture f;
  const std::vector<rom::BusTechPoint> points = {
      {0.9, 1.0, 0.85}, {1.1, 0.95, 1.15}, {1.0, 1.05, 1.0}, {0.86, 1.09, 1.19}};
  const double t_stop[] = {2e-10, 3e-10, 2.5e-10, 1.7e-10};
  const double dt[] = {1e-12, 1.5e-12, 2.5e-12, 1e-12};  // ragged step counts
  // Odd lanes start from a DC operating point, even lanes quiescent.
  std::vector<std::vector<cir::Waveform>> waves(4, f.waves);
  waves[1][2] = cir::DcWave{1e-4};
  waves[3][2] = cir::DcWave{-2e-4};
  for (const std::size_t lanes : {std::size_t{4}, std::size_t{3}}) {
    rom::LaneKernel kernel;
    std::vector<rom::ReducedModel> models;
    for (std::size_t l = 0; l < lanes; ++l) models.push_back(f.model(points[l]));
    // begin() keeps references to Br/Lr: take them from a live model.
    kernel.begin(lanes, models[0].br(), models[0].lr(), 0, 8);
    for (std::size_t l = 0; l < lanes; ++l) {
      kernel.g() = models[l].gr();
      kernel.c() = models[l].cr();
      kernel.load_lane(l, waves[l], t_stop[l], dt[l]);
    }
    kernel.run();
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto ref = models[l].simulate(waves[l], t_stop[l], dt[l]);
      ASSERT_EQ(kernel.steps(l), ref.time.size()) << "lane " << l;
      for (std::size_t s = 0; s < ref.time.size(); ++s) {
        ASSERT_EQ(bits(kernel.time(l)[s]), bits(ref.time[s]));
        for (std::size_t k = 0; k < 8; ++k) {
          ASSERT_EQ(bits(kernel.output(l, k)[s]), bits(ref.outputs[k][s]))
              << "lanes " << lanes << " lane " << l << " output " << k
              << " step " << s;
        }
      }
    }
  }
}

TEST(LaneKernel, RejectsBadGroupsAndUnloadedLanes) {
  const LaneFixture f;
  const rom::ReducedModel m = f.model({1.0, 1.0, 1.0});
  rom::LaneKernel kernel;
  EXPECT_THROW(kernel.begin(0, m.br(), m.lr(), 0, 8), cnti::PreconditionError);
  EXPECT_THROW(kernel.begin(rom::kLanes + 1, m.br(), m.lr(), 0, 8),
               cnti::PreconditionError);
  EXPECT_THROW(kernel.begin(2, m.br(), m.lr(), 4, 5), cnti::PreconditionError);
  kernel.begin(2, m.br(), m.lr(), 4, 4);
  kernel.g() = m.gr();
  kernel.c() = m.cr();
  EXPECT_THROW(kernel.load_lane(2, f.waves, 1e-10, 1e-12),
               cnti::PreconditionError);
  EXPECT_THROW(kernel.load_lane(0, {}, 1e-10, 1e-12), cnti::PreconditionError);
  kernel.load_lane(0, f.waves, 1e-10, 1e-12);
  EXPECT_THROW(kernel.run(), cnti::PreconditionError);  // lane 1 not loaded
}

TEST(ParamRom, LaneGroupsMatchSingleEvaluationsBitForBit) {
  // Nine points: two full lane groups and a ragged one, on one reused
  // BusLanes workspace.
  const LaneFixture f;
  rom::BusScenario sc;
  sc.driver_ohm = 4e3;
  std::vector<rom::BusTechPoint> points;
  for (int i = 0; i < 9; ++i) {
    points.push_back({0.86 + 0.03 * i, 1.09 - 0.02 * i, 0.81 + 0.04 * i});
  }
  std::vector<cir::BusCrosstalkResult> grouped(points.size());
  rom::BusLanes lanes = f.prom.bus_lanes(sc, 300);
  f.prom.evaluate(points, lanes, grouped);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto single = f.prom.evaluate(points[i], sc, 300);
    EXPECT_EQ(bits(grouped[i].peak_noise_v), bits(single.peak_noise_v)) << i;
    EXPECT_EQ(bits(grouped[i].peak_time_s), bits(single.peak_time_s)) << i;
    EXPECT_EQ(bits(grouped[i].aggressor_delay_s),
              bits(single.aggressor_delay_s)) << i;
    EXPECT_EQ(grouped[i].worst_victim, single.worst_victim) << i;
    EXPECT_EQ(grouped[i].unknowns, single.unknowns) << i;
  }
  // Reusing the workspace for a second, smaller call changes nothing.
  std::vector<cir::BusCrosstalkResult> again(2);
  f.prom.evaluate({points.data() + 4, 2}, lanes, again);
  EXPECT_EQ(bits(again[1].peak_noise_v), bits(grouped[5].peak_noise_v));
  // Lanes are bound to the ROM that made them.
  const rom::ParametrizedBusRom other(f.cfg.topology(), f.box);
  EXPECT_THROW(other.evaluate({points.data(), 1}, lanes, {again.data(), 1}),
               cnti::PreconditionError);
}

TEST(RomPins, TransientBitsAreUnchangedByTheLaneKernel) {
  // Hex pins taken from the scalar trapezoidal loop (before the lane
  // kernel): any reassociation of the step arithmetic moves them.
  cir::BusConfig cfg = paper_bus(4, 12);
  const rom::BusRom bus(cfg);
  rom::BusScenario bsc = bus.nominal_scenario();
  bsc.driver_ohm = 500.0;
  auto r = bus.evaluate(bsc, 300);
  EXPECT_EQ(bits(r.peak_noise_v), 0x3fbfcfddbeb9d1aeULL);
  EXPECT_EQ(bits(r.peak_time_s), 0x3dede91726f971daULL);
  EXPECT_EQ(bits(r.aggressor_delay_s), 0x3debad3c6d775bd1ULL);
  EXPECT_EQ(r.worst_victim, 3);
  bsc.driver_ohm = 5e3;
  r = bus.evaluate(bsc, 300);
  EXPECT_EQ(bits(r.peak_noise_v), 0x3fbf72315429dc57ULL);
  EXPECT_EQ(bits(r.peak_time_s), 0x3df0d2b367ae320bULL);
  EXPECT_EQ(bits(r.aggressor_delay_s), 0x3deffe25ae9fab05ULL);

  cfg.segments = 8;
  rom::BusTechBox box;
  box.lo = {0.85, 0.90, 0.80};
  box.hi = {1.15, 1.10, 1.20};
  const rom::ParametrizedBusRom prom(cfg.topology(), box);
  const auto p = prom.evaluate({1.07, 0.93, 1.11}, rom::BusScenario{}, 400);
  EXPECT_EQ(bits(p.peak_noise_v), 0x3fc15ebe9ed82b1eULL);
  EXPECT_EQ(bits(p.peak_time_s), 0x3df138353dfc936eULL);
  EXPECT_EQ(bits(p.aggressor_delay_s), 0x3df0260f5e1a5685ULL);
  EXPECT_EQ(p.worst_victim, 3);

  const rom::ReducedModel m = prom.model_at({1.07, 0.93, 1.11});
  const auto tr = m.step_response(0, 2e-10, 1e-12);
  ASSERT_EQ(tr.time.size(), 201u);
  EXPECT_EQ(bits(tr.outputs[5][50]), 0x40a2ab1406ac8887ULL);
  EXPECT_EQ(bits(tr.outputs[7][200]), 0x40956be659cc07a5ULL);
  EXPECT_EQ(bits(tr.outputs[0][1]), 0x40c576486170322bULL);

  // A non-zero input at t = 0 takes the DC-start solve (the runs above
  // start quiescent, where x0 = 0 needs none).
  const LaneFixture f;
  std::vector<cir::Waveform> waves = f.waves;
  waves[2] = cir::DcWave{1e-4};
  const auto dc = m.terminated(f.loads).simulate(waves, 2e-10, 1e-12);
  EXPECT_EQ(bits(dc.outputs[6][0]), 0x3fdfffff9b07a80fULL);
  EXPECT_EQ(bits(dc.outputs[6][100]), 0x3fe3526aac0bb195ULL);
  EXPECT_EQ(bits(dc.outputs[5][200]), 0x3fe48bc37ea0e070ULL);
}

// fold_terminations on a hand-built 5 x 5 model with -0.0 entries in G
// row 1 and C row 3, zero and -0.0 Br/Lr entries, and loads whose
// conductance, capacitance or both are zero. The pins come from the loop
// that applied every load to both matrices and skipped zero Lr entries;
// g(1, 4) stays -0.0 there and c(3, 0) turns +0.0, so a fold that adds
// +-0 to a -0.0 row, or drops such an add, moves a bit.
struct FoldCase {
  cnti::numerics::MatrixD g{5, 5}, c{5, 5}, br{5, 3}, lr_t{3, 5};
  std::vector<rom::PortTermination> loads = {{0, 0, 2.5e-3, 0.0},
                                             {1, 1, 0.0, 1.5e-15},
                                             {2, 2, 0.0, 0.0},
                                             {0, 2, 1e-4, 3e-16},
                                             {2, 1, 7e-3, 0.0}};
  FoldCase() {
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        g(i, j) = 0.25 * static_cast<double>(i + 1) -
                  0.125 * static_cast<double>(j);
        c(i, j) = 1e-15 * (static_cast<double>(i) -
                           0.5 * static_cast<double>(j));
      }
    }
    g(1, 2) = -0.0;
    g(1, 4) = -0.0;
    c(3, 0) = -0.0;
    c(3, 3) = -0.0;
    g(4, 4) = 0.0;
    const double bv[5][3] = {{0.5, 0.0, -0.25},
                             {-0.75, 0.125, 0.0},
                             {0.0, 0.0, 0.0},
                             {0.3125, -0.0, 1.5},
                             {-1.25, 2.0, 0.0625}};
    const double lv[3][5] = {{0.5, -0.0, 0.0, 1.0, -0.0},
                             {0.0, 0.75, 1.0, 0.0, -0.25},
                             {-0.0, 0.0, 0.5, 0.0, -0.0}};
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t k = 0; k < 3; ++k) br(i, k) = bv[i][k];
    }
    for (std::size_t k = 0; k < 3; ++k) {
      for (std::size_t j = 0; j < 5; ++j) lr_t(k, j) = lv[k][j];
    }
  }
};

TEST(RomPins, FoldTerminationsKeepsSignedZeroBits) {
  FoldCase f;
  rom::fold_terminations(f.g, f.c, f.br, f.lr_t, f.loads);
  const std::uint64_t g_pins[5][5] = {
      {0x3fd00a3d70a3d70a, 0x3fbfa9fbe76c8b44, 0xbf5c432ca57a786c,
       0xbfbfae147ae147ae, 0xbfcff1a9fbe76c8b},
      {0x3fdff0a3d70a3d71, 0x3fd8000000000000, 0xbf03a92a30553262,
       0x3fbf851eb851eb85, 0x8000000000000000},
      {0x3fe8000000000000, 0x3fe4000000000000, 0x3fe0000000000000,
       0x3fd8000000000000, 0x3fd0000000000000},
      {0x3ff001999999999a, 0x3fec4083126e978d, 0x3fe85624dd2f1a9f,
       0x3fe4066666666666, 0x3fdfd4fdf3b645a2},
      {0x3ff3f9999999999a, 0x3ff2015810624dd3, 0x3ff00189374bc6a8,
       0x3febe66666666666, 0xbf1cac083126e979}};
  const std::uint64_t c_pins[5][5] = {
      {0x0000000000000000, 0xbcc203af9ee75616, 0xbcd0a9cf3fc92fa1,
       0xbcdb05876e5b0121, 0xbce203af9ee75616},
      {0x3cd203af9ee75616, 0x3cc714b90398664c, 0x3c959e05f1e2674c,
       0xbcc203af9ee75616, 0xbcd2dbdbda5a2e1f},
      {0x3ce203af9ee75616, 0x3cdb05876e5b0121, 0x3cd203af9ee75616,
       0x3cc203af9ee75616, 0x0000000000000000},
      {0x0000000000000000, 0x3ce6849b86a12b9c, 0x3ce26fc5bca0c21a,
       0x0000000000000000, 0x3cd203af9ee75616},
      {0x3cf203af9ee75616, 0x3cf9e54c746c8bbf, 0x3cfa2d5b32e82917,
       0x3ce6849b86a12b9c, 0x3cd6849b86a12b9c}};
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(f.g(i, j)), g_pins[i][j])
          << "g(" << i << ", " << j << ")";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(f.c(i, j)), c_pins[i][j])
          << "c(" << i << ", " << j << ")";
    }
  }
}

TEST(RomPins, FoldTerminationsRejectsNonFiniteInputsByName) {
  const auto expect_named = [](FoldCase f, const char* what) {
    try {
      rom::fold_terminations(f.g, f.c, f.br, f.lr_t, f.loads);
      ADD_FAILURE() << "expected a PreconditionError naming " << what;
    } catch (const cnti::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  FoldCase br_inf;
  br_inf.br(3, 1) = inf;  // input 1 is loaded (conductance 0: 0 * inf)
  expect_named(br_inf, "Br has a non-finite entry");
  FoldCase lr_nan;
  lr_nan.lr_t(2, 0) = std::numeric_limits<double>::quiet_NaN();
  expect_named(lr_nan, "Lr has a non-finite entry");
  FoldCase load_inf;
  load_inf.loads[1].capacitance_f = inf;
  expect_named(load_inf, "shunt elements must be finite");
}

}  // namespace
