// Sparse circuit engine validation, in three parts:
//  1. SparseLu / CsrAssembler property tests — random diagonally-dominant
//     CSR systems and random RC-ladder MNA patterns are factored and
//     checked against the dense LuFactorization oracle to 1e-12; singular
//     inputs must throw NumericalError; refactorization must reuse the
//     symbolic analysis and survive pivot degradation by re-pivoting.
//  2. The differential harness — every circuit scenario (DC, dc_sweep,
//     RC/RLC/MOSFET transients, the pair and bus crosstalk netlists) is run
//     through the sparse engine and the dense reference oracle, and the
//     full node waveforms must agree to 1e-8 relative. Cases whose matrix
//     changes between solves (the MOSFET DC point, VTC sweep and chain
//     transient) also fail if a changed matrix skips its refactorization.
//  3. The engine's factor-once contract: every circuit runs on the sparse
//     engine, a linear bus transient factors each distinct matrix once and
//     solves once per step, and skipping the repeats leaves its KPIs
//     bit-identical to an engine that refactors on every solve.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/crosstalk.hpp"
#include "circuit/dc_sweep.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "common/error.hpp"
#include "core/mwcnt_line.hpp"
#include "numerics/matrix.hpp"
#include "numerics/rng.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"

namespace cir = cnti::circuit;
namespace cn = cnti::numerics;

namespace {

// ---------------------------------------------------------------------------
// SparseLu property tests against the dense oracle.
// ---------------------------------------------------------------------------

struct RandomSystem {
  cn::SparseMatrix sparse;
  cn::MatrixD dense;
  std::vector<double> b;
};

/// Random diagonally-dominant system with ~`offdiag_per_row` off-diagonal
/// entries per row, mirrored into a dense copy.
RandomSystem make_diag_dominant(cn::Rng& rng, std::size_t n,
                                int offdiag_per_row) {
  cn::SparseBuilder builder(n, n);
  cn::MatrixD dense(n, n);
  std::vector<double> row_sum(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < offdiag_per_row; ++k) {
      const auto j = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(n) - 1e-9));
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      builder.add(i, j, v);
      dense(i, j) += v;
      row_sum[i] += std::abs(v);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (row_sum[i] + 1.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    builder.add(i, i, d);
    dense(i, i) += d;
  }
  RandomSystem out;
  out.sparse = builder.build();
  out.dense = std::move(dense);
  out.b.resize(n);
  for (auto& v : out.b) v = rng.uniform(-2.0, 2.0);
  return out;
}

/// Random RC-ladder MNA pattern: a resistor chain with random shunts and a
/// voltage-source branch row appended — the classic [[G, B], [B^T, 0]]
/// saddle-point shape with a structurally zero branch diagonal, which
/// forces SparseLu's partial pivoting off the natural order.
RandomSystem make_rc_ladder_mna(cn::Rng& rng, std::size_t nodes) {
  const std::size_t n = nodes + 1;  // + one vsource branch current
  cn::SparseBuilder builder(n, n);
  cn::MatrixD dense(n, n);
  const auto add = [&](std::size_t r, std::size_t c, double v) {
    builder.add(r, c, v);
    dense(r, c) += v;
  };
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    const double g = 1.0 / rng.uniform(0.5, 50.0);  // series resistor
    add(i, i, g);
    add(i + 1, i + 1, g);
    add(i, i + 1, -g);
    add(i + 1, i, -g);
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    if (rng.uniform() < 0.5) add(i, i, 1.0 / rng.uniform(1.0, 100.0));
    add(i, i, 1e-12);  // gmin floor, as the MNA engine stamps it
  }
  // Voltage source at node 0: B columns/rows, zero branch diagonal.
  add(0, nodes, 1.0);
  add(nodes, 0, 1.0);
  RandomSystem out;
  out.sparse = builder.build();
  out.dense = std::move(dense);
  out.b.assign(n, 0.0);
  out.b[nodes] = rng.uniform(0.5, 2.0);  // source voltage
  return out;
}

void expect_matches_dense(const RandomSystem& sys, double tol) {
  const std::vector<double> x_sparse = cn::solve_sparse(sys.sparse, sys.b);
  const std::vector<double> x_dense =
      cn::LuFactorization<double>(sys.dense).solve(sys.b);
  double scale = 1.0;
  for (const double v : x_dense) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < x_dense.size(); ++i) {
    EXPECT_NEAR(x_sparse[i], x_dense[i], tol * scale) << "component " << i;
  }
}

TEST(SparseLu, FactorsRandomDiagonallyDominantSystems) {
  cn::Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform(5.0, 120.0));
    const int offdiag = 1 + trial % 6;
    const RandomSystem sys = make_diag_dominant(rng, n, offdiag);
    expect_matches_dense(sys, 1e-12);
  }
}

TEST(SparseLu, FactorsRandomRcLadderMnaPatterns) {
  cn::Rng rng(2018);
  for (int trial = 0; trial < 40; ++trial) {
    const auto nodes = static_cast<std::size_t>(rng.uniform(3.0, 90.0));
    const RandomSystem sys = make_rc_ladder_mna(rng, nodes);
    expect_matches_dense(sys, 1e-12);
  }
}

TEST(SparseLu, SolvesMultipleRhsFromOneFactorization) {
  cn::Rng rng(7);
  const RandomSystem sys = make_diag_dominant(rng, 60, 4);
  cn::SparseLu lu;
  lu.factorize(sys.sparse);
  const cn::LuFactorization<double> dense_lu(sys.dense);
  for (int k = 0; k < 5; ++k) {
    std::vector<double> b(60);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    const auto xs = lu.solve(b);
    const auto xd = dense_lu.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(xs[i], xd[i], 1e-12);
    }
  }
}

TEST(SparseLu, NumericallySingularThrows) {
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);  // rank 1
  cn::SparseLu lu;
  EXPECT_THROW(lu.factorize(builder.build()), cnti::NumericalError);
}

TEST(SparseLu, StructurallySingularThrows) {
  cn::SparseBuilder builder(3, 3);
  builder.add(0, 0, 2.0);
  builder.add(1, 1, 3.0);  // column 2 is empty
  builder.add(0, 1, 1.0);
  cn::SparseLu lu;
  EXPECT_THROW(lu.factorize(builder.build()), cnti::NumericalError);
}

TEST(SparseLu, ZeroPivotColumnThrows) {
  // Column 0 exists structurally but every entry is numerically zero.
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 0.0);
  builder.add(1, 0, 0.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 1, 2.0);
  cn::SparseLu lu;
  EXPECT_THROW(lu.factorize(builder.build()), cnti::NumericalError);
}

TEST(SparseLu, RefactorizationReusesSymbolicAnalysis) {
  cn::Rng rng(11);
  RandomSystem sys = make_diag_dominant(rng, 50, 3);
  cn::SparseLu lu;
  lu.factorize(sys.sparse);
  EXPECT_FALSE(lu.reused_symbolic());

  // Same pattern, new values: must take the numeric-only path and still
  // agree with a dense factorization of the new values.
  cn::MatrixD dense(50, 50);
  auto& vals = sys.sparse.values();
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t k = sys.sparse.row_ptr()[r];
         k < sys.sparse.row_ptr()[r + 1]; ++k) {
      vals[k] *= rng.uniform(0.5, 1.5);
      dense(r, sys.sparse.col_indices()[k]) = vals[k];
    }
  }
  lu.factorize(sys.sparse);
  EXPECT_TRUE(lu.reused_symbolic());
  const auto xs = lu.solve(sys.b);
  const auto xd = cn::LuFactorization<double>(dense).solve(sys.b);
  double scale = 1.0;
  for (const double v : xd) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(xs[i], xd[i], 1e-12 * scale);
  }

  // A different pattern forces a fresh symbolic analysis.
  const RandomSystem other = make_diag_dominant(rng, 50, 5);
  lu.factorize(other.sparse);
  EXPECT_FALSE(lu.reused_symbolic());
}

TEST(SparseLu, RecoversAfterSingularFactorizationThrow) {
  // A successful factorization followed by a singular same-pattern update
  // must throw — and must NOT leave the object in a half-analyzed state:
  // solve() must reject it, and a later factorize() with good values must
  // rebuild from scratch and produce correct results.
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 3.0);
  cn::SparseMatrix a = builder.build();
  cn::SparseLu lu;
  lu.factorize(a);

  cn::SparseMatrix singular = a;
  for (auto& v : singular.values()) v = 1.0;  // rank 1, same pattern
  EXPECT_THROW(lu.factorize(singular), cnti::NumericalError);
  EXPECT_FALSE(lu.analyzed());
  EXPECT_THROW(lu.solve({1.0, 2.0}), cnti::PreconditionError);

  lu.factorize(a);
  const auto x = lu.solve({5.0, 4.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);  // [[4,1],[1,3]] x = [5,4] -> [1,1]
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SparseLu, RefactorizationRepivotsOnDegradedPivot) {
  // First factorization pivots on the dominant (0,0). The value update
  // shrinks that entry to 1e-14, so the reused pivot fails the threshold
  // test and factorize() must silently fall back to full re-pivoting.
  cn::SparseBuilder builder(2, 2);
  builder.add(0, 0, 10.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);
  cn::SparseMatrix a = builder.build();
  cn::SparseLu lu;
  lu.factorize(a);

  cn::MatrixD dense(2, 2);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      if (r == 0 && a.col_indices()[k] == 0) a.values()[k] = 1e-14;
      dense(r, a.col_indices()[k]) = a.values()[k];
    }
  }
  lu.factorize(a);
  EXPECT_FALSE(lu.reused_symbolic());  // fell back to full factorization
  const std::vector<double> b = {1.0, 2.0};
  const auto xs = lu.solve(b);
  const auto xd = cn::LuFactorization<double>(dense).solve(b);
  EXPECT_NEAR(xs[0], xd[0], 1e-10);
  EXPECT_NEAR(xs[1], xd[1], 1e-10);
}

// ---------------------------------------------------------------------------
// CsrAssembler: pattern freeze + stamp-slot replay.
// ---------------------------------------------------------------------------

TEST(CsrAssembler, ReplayAccumulatesIntoFrozenPattern) {
  cn::CsrAssembler assembler(3);
  const auto stamp = [&](double scale) {
    assembler.begin();
    assembler.add(0, 0, 2.0 * scale);
    assembler.add(1, 1, 3.0 * scale);
    assembler.add(0, 1, -1.0 * scale);
    assembler.add(0, 0, 0.5 * scale);  // duplicate stamp, must sum
    assembler.add(2, 2, 1.0 * scale);
    return assembler.end();
  };
  const cn::SparseMatrix& first = stamp(1.0);
  EXPECT_TRUE(assembler.frozen());
  EXPECT_EQ(first.nnz(), 4u);  // duplicates collapse into one slot
  EXPECT_DOUBLE_EQ(first.at(0, 0), 2.5);

  const cn::SparseMatrix& second = stamp(2.0);
  EXPECT_DOUBLE_EQ(second.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(second.at(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(second.at(1, 1), 6.0);
  EXPECT_EQ(second.nnz(), 4u);  // pattern unchanged
}

TEST(CsrAssembler, FirstPassSumsDuplicatesInStampOrder) {
  // Duplicate stamps of mixed magnitude round differently in different
  // summation orders. The recording pass must sum them in stamp-stream
  // order, exactly like every replay, or the first assembly and the
  // replays of identical values disagree in their last bits (and the
  // factor-once skip refactors the same matrix twice).
  cn::Rng rng(17);
  std::vector<std::array<std::size_t, 2>> at;
  std::vector<double> values;
  for (int k = 0; k < 300; ++k) {
    at.push_back({static_cast<std::size_t>(k % 3 == 0 ? 1 : 0),
                  static_cast<std::size_t>(k % 2)});
    values.push_back(rng.uniform(-1.0, 1.0) *
                     std::pow(10.0, rng.uniform(-8.0, 8.0)));
  }
  double expected[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  for (std::size_t k = 0; k < at.size(); ++k) {
    expected[at[k][0]][at[k][1]] += values[k];
  }

  cn::CsrAssembler assembler(2);
  const auto pass = [&] {
    assembler.begin();
    for (std::size_t k = 0; k < at.size(); ++k) {
      assembler.add(at[k][0], at[k][1], values[k]);
    }
    return assembler.end().values();
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::vector<double> first = pass();
  const cn::SparseMatrix& m = assembler.matrix();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(bits(m.at(r, c)), bits(expected[r][c])) << r << "," << c;
    }
  }
  const std::vector<double> replay = pass();
  ASSERT_EQ(first.size(), replay.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(bits(first[i]), bits(replay[i])) << "slot " << i;
  }
}

TEST(CsrAssembler, DivergingStampStreamThrows) {
  cn::CsrAssembler assembler(2);
  assembler.begin();
  assembler.add(0, 0, 1.0);
  assembler.add(1, 1, 1.0);
  assembler.end();

  assembler.begin();
  EXPECT_THROW(assembler.add(1, 0, 1.0), cnti::PreconditionError);
}

// ---------------------------------------------------------------------------
// Differential harness: every scenario through the engine and the dense
// reference oracle.
// ---------------------------------------------------------------------------

constexpr double kWaveformRelTol = 1e-8;

/// Runs the transient through the dense reference and the engine and
/// requires every node waveform to agree to kWaveformRelTol relative to the
/// largest voltage seen.
void expect_transient_agreement(const cir::Circuit& ckt,
                                const cir::TransientOptions& opt) {
  const cir::TransientResult dense = cir::reference::simulate_transient(ckt, opt);
  const cir::TransientResult sparse = cir::simulate_transient(ckt, opt);

  ASSERT_EQ(dense.steps(), sparse.steps());
  double scale = 0.0;
  for (cir::NodeId n = 0; n <= ckt.node_count(); ++n) {
    for (const double v : dense.voltage(n)) {
      scale = std::max(scale, std::abs(v));
    }
  }
  scale = std::max(scale, 1e-6);
  double worst = 0.0;
  for (cir::NodeId n = 0; n <= ckt.node_count(); ++n) {
    const auto& vd = dense.voltage(n);
    const auto& vs = sparse.voltage(n);
    for (std::size_t i = 0; i < vd.size(); ++i) {
      worst = std::max(worst, std::abs(vd[i] - vs[i]));
    }
  }
  EXPECT_LE(worst / scale, kWaveformRelTol)
      << "worst abs divergence " << worst << " over scale " << scale;
}

cir::Circuit make_rc_ladder(int segments, double r_ohm, double c_f) {
  cir::Circuit ckt;
  cir::PulseWave pulse;
  pulse.v1 = 0.0;
  pulse.v2 = 1.0;
  pulse.delay_s = 10e-12;
  pulse.rise_s = 10e-12;
  pulse.fall_s = 10e-12;
  pulse.width_s = 1.0;
  pulse.period_s = 2.0;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, pulse);
  cir::NodeId prev = in;
  for (int s = 0; s < segments; ++s) {
    const std::string is = std::to_string(s);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, n, r_ohm);
    ckt.add_capacitor("c" + is, n, 0, c_f);
    prev = n;
  }
  return ckt;
}

TEST(DenseSparseDifferential, RcLadderStepResponse) {
  const cir::Circuit ckt = make_rc_ladder(40, 150.0, 2e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 1.2e-9;
  opt.dt_s = 1e-12;
  expect_transient_agreement(ckt, opt);
}

TEST(DenseSparseDifferential, RlcLineWithInductors) {
  cir::Circuit ckt;
  cir::PulseWave pulse;
  pulse.v1 = 0.0;
  pulse.v2 = 1.0;
  pulse.delay_s = 20e-12;
  pulse.rise_s = 20e-12;
  pulse.fall_s = 20e-12;
  pulse.width_s = 1.0;
  pulse.period_s = 2.0;
  const auto in = ckt.node("in");
  ckt.add_vsource("vin", in, 0, pulse);
  cir::NodeId prev = in;
  for (int s = 0; s < 12; ++s) {
    const std::string is = std::to_string(s);
    const auto mid = ckt.node("m" + is);
    const auto n = ckt.node("n" + is);
    ckt.add_resistor("r" + is, prev, mid, 50.0);
    ckt.add_inductor("l" + is, mid, n, 10e-12);
    ckt.add_capacitor("c" + is, n, 0, 5e-15);
    prev = n;
  }
  cir::TransientOptions opt;
  opt.t_stop_s = 1e-9;
  opt.dt_s = 0.5e-12;
  expect_transient_agreement(ckt, opt);
}

TEST(DenseSparseDifferential, CurrentSourceDrivenGrid) {
  cir::Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  const auto c = ckt.node("c");
  ckt.add_isource("i1", 0, a, cir::DcWave{1e-3});
  ckt.add_resistor("r1", a, b, 1e3);
  ckt.add_resistor("r2", b, c, 2e3);
  ckt.add_resistor("r3", c, 0, 3e3);
  ckt.add_resistor("r4", a, c, 4e3);
  ckt.add_capacitor("c1", b, 0, 1e-15);
  ckt.add_capacitor("c2", c, 0, 2e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 0.1e-9;
  opt.dt_s = 0.5e-12;
  expect_transient_agreement(ckt, opt);
}

TEST(DenseSparseDifferential, MosfetInverterChainTransient) {
  cir::Fig11Options opt;
  opt.line = cnti::core::make_paper_mwcnt(10, 4.0, 50e3).rlc();
  opt.length_m = 100e-6;
  opt.segments = 10;
  const cir::Fig11Circuit bench = cir::build_fig11_benchmark(opt);
  cir::TransientOptions topt;
  topt.t_stop_s = bench.pulse_period_s;
  topt.dt_s = topt.t_stop_s / 1500;
  expect_transient_agreement(bench.ckt, topt);
}

TEST(DenseSparseDifferential, DcOperatingPoint) {
  cir::Fig11Options fopt;
  fopt.line = cnti::core::make_paper_mwcnt(10, 4.0, 50e3).rlc();
  fopt.length_m = 100e-6;
  fopt.segments = 8;
  const cir::Fig11Circuit bench = cir::build_fig11_benchmark(fopt);
  const cir::DcResult dense = cir::reference::solve_dc(bench.ckt, 0.0);
  const cir::DcResult sparse = cir::solve_dc(bench.ckt, 0.0);
  ASSERT_EQ(dense.node_voltages.size(), sparse.node_voltages.size());
  for (std::size_t n = 0; n < dense.node_voltages.size(); ++n) {
    EXPECT_NEAR(dense.node_voltages[n], sparse.node_voltages[n], 1e-8);
  }
  ASSERT_EQ(dense.vsource_currents.size(), sparse.vsource_currents.size());
  for (std::size_t k = 0; k < dense.vsource_currents.size(); ++k) {
    EXPECT_NEAR(dense.vsource_currents[k], sparse.vsource_currents[k], 1e-8);
  }
}

TEST(DenseSparseDifferential, InverterVtcDcSweep) {
  // dc_sweep reuses one engine backend across the sweep; the reference
  // solves every point from scratch.
  cir::Circuit ckt;
  const cir::Technology45nm tech;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("vsupply", vdd, 0, cir::DcWave{tech.vdd_v});
  ckt.add_vsource("vi", in, 0, cir::DcWave{0.0});
  cir::add_inverter(ckt, "inv", in, out, vdd, tech);
  const auto sparse = cir::dc_sweep(ckt, "vi", 0.0, tech.vdd_v, 41, out);
  ASSERT_EQ(sparse.output_v.size(), 41u);
  for (std::size_t i = 0; i < sparse.output_v.size(); ++i) {
    ckt.set_vsource_wave(1, cir::DcWave{sparse.input_v[i]});
    const cir::DcResult dense = cir::reference::solve_dc(ckt);
    EXPECT_NEAR(dense.node_voltages[static_cast<std::size_t>(out)],
                sparse.output_v[i], 1e-8);
  }
}

TEST(DenseSparseDifferential, CrosstalkPairNoisePeak) {
  cir::CrosstalkConfig cfg;
  cfg.victim = cnti::core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.aggressor = cfg.victim;
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 50e-6;
  cfg.segments = 12;
  cir::TransientOptions opt;
  opt.t_stop_s = 0.4e-9;
  opt.dt_s = 0.5e-12;
  expect_transient_agreement(cir::build_crosstalk_netlist(cfg).ckt, opt);
}

TEST(DenseSparseDifferential, CoupledBusWorstVictim) {
  cir::BusConfig cfg;
  cfg.line = cnti::core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 50e-6;
  cfg.lines = 5;
  cfg.segments = 10;
  cfg.aggressor = 1;
  // The bare bus with the terminations analyze_bus_crosstalk attaches: the
  // aggressor's edge behind its driver, victims held low, far-end loads.
  cir::BusNetlist bus = cir::build_bus_netlist(cfg);
  const cir::NodeId in = bus.ckt.node("bus_in");
  bus.ckt.add_vsource("vbus", in, 0,
                      cir::bus_edge_wave(cfg.vdd_v, cfg.edge_time_s));
  for (int l = 0; l < cfg.lines; ++l) {
    const auto k = static_cast<std::size_t>(l);
    bus.ckt.add_resistor("rdrv" + std::to_string(l),
                         l == cfg.aggressor ? in : 0, bus.head[k],
                         cfg.driver_ohm);
    bus.ckt.add_capacitor("cl" + std::to_string(l), bus.far[k], 0,
                          cfg.receiver_load_f);
  }
  cir::TransientOptions opt;
  opt.t_stop_s = cir::bus_settle_time_s(cfg);
  opt.dt_s = opt.t_stop_s / 600;
  expect_transient_agreement(bus.ckt, opt);

  // Off-centre aggressor: its two neighbours (edge line 0, interior line
  // 2) are structurally different, so the worst victim is not a
  // floating-point near-tie, and it must be a neighbour.
  const cir::BusCrosstalkResult r = cir::analyze_bus_crosstalk(cfg, 600);
  EXPECT_EQ(std::abs(r.worst_victim - cfg.aggressor), 1);
}

// ---------------------------------------------------------------------------
// Factor once: the engine skips refactorizations of unchanged values.
// ---------------------------------------------------------------------------

/// Fresh plus replayed SparseLu factorizations so far in this process.
std::uint64_t factorization_count() {
  return cnti::obs::counter("cnti.solver.factorizations").value() +
         cnti::obs::counter("cnti.solver.refactorizations").value();
}

std::uint64_t solve_count() {
  return cnti::obs::counter("cnti.solver.solves").value();
}

/// A small linear bus. The line values are plain decimal constants rather
/// than the CNT physics chain, so the transient uses only IEEE basic
/// arithmetic and its bits do not depend on the platform's libm.
cir::BusConfig linear_bus() {
  cir::BusConfig cfg;
  cfg.line = {20e3, 36e6, 50e-12, 450e-6};
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 50e-6;
  cfg.lines = 4;
  cfg.segments = 12;
  cfg.aggressor = 1;
  return cfg;
}

TEST(FactorOnce, SmallTransientRunsTheSparseEngine) {
  // Every circuit runs on the sparse engine, however small: a 31-unknown
  // RC ladder moves the sparse LU counters.
  const cir::Circuit ckt = make_rc_ladder(30, 100.0, 1e-15);
  cir::TransientOptions opt;
  opt.t_stop_s = 0.5e-9;
  opt.dt_s = 1e-12;
  const std::uint64_t f0 = factorization_count();
  const std::uint64_t s0 = solve_count();
  (void)cir::simulate_transient(ckt, opt);
  EXPECT_GE(factorization_count() - f0, 1u);
  EXPECT_GE(solve_count() - s0, 500u);
}

TEST(FactorOnce, LinearBusTransientFactorsOncePerDistinctMatrix) {
  // The bus has no MOSFETs, so DC solves its g_min = 0 system directly and
  // the transient reuses DC's pattern: the distinct matrices are the DC
  // matrix and the trapezoidal companion matrix at the fixed dt.
  const std::uint64_t f0 = factorization_count();
  (void)cir::analyze_bus_crosstalk(linear_bus(), 400);
  EXPECT_EQ(factorization_count() - f0, 2u);
}

TEST(FactorOnce, LinearBusSolvesOncePerStepPlusDc) {
  // A linear circuit assembles the same system at every Newton iterate, so
  // each of the 400 steps takes one solve, and DC one more.
  const std::uint64_t s0 = solve_count();
  (void)cir::analyze_bus_crosstalk(linear_bus(), 400);
  EXPECT_EQ(solve_count() - s0, 401u);
}

TEST(FactorOnce, SkippedRefactorsLeaveBusKpisBitIdentical) {
  // A replay of bitwise-equal values reproduces the stored factors bit for
  // bit, so skipping it must not move a single KPI bit. The pinned values
  // were produced by the engine when it refactored on every solve (783
  // factorizations for 783 solves on this bus).
  const std::uint64_t f0 = factorization_count();
  const std::uint64_t s0 = solve_count();
  const cir::BusCrosstalkResult r =
      cir::analyze_bus_crosstalk(linear_bus(), 400);
  // The identity only means something if the skip actually engaged.
  ASSERT_LT(10 * (factorization_count() - f0), solve_count() - s0);
  EXPECT_EQ(r.unknowns, 62);
  EXPECT_EQ(r.worst_victim, 0);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(r.peak_noise_v), bits(0x1.deea2f0606d29p-4));
  EXPECT_EQ(bits(r.peak_time_s), bits(0x1.89079845cc361p-33));
  EXPECT_EQ(bits(r.aggressor_delay_s), bits(0x1.7501263ff13f6p-33));
}

// ---------------------------------------------------------------------------
// Stamp once: a linear circuit stamps each distinct matrix once and builds
// only the right-hand side afterwards; MOSFET circuits stamp every Newton
// iteration.
// ---------------------------------------------------------------------------

std::uint64_t matrix_stamp_count() {
  return cnti::obs::counter("cnti.mna.matrix_stamps").value();
}

TEST(FactorOnce, LinearBusStampsItsMatrixOncePerDistinctMatrix) {
  // One matrix pass for the DC point and one at the fixed timestep; the
  // 400 steps after the first build only b.
  const std::uint64_t m0 = matrix_stamp_count();
  (void)cir::analyze_bus_crosstalk(linear_bus(), 400);
  EXPECT_EQ(matrix_stamp_count() - m0, 2u);
}

TEST(FactorOnce, MosfetCircuitStampsEveryNewtonIteration) {
  // A MOSFET's conductances move with the operating point, so every Newton
  // iteration of every g_min stage stamps the matrix again.
  cir::Circuit ckt;
  const cir::Technology45nm tech;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("vsupply", vdd, 0, cir::DcWave{tech.vdd_v});
  ckt.add_vsource("vi", in, 0, cir::DcWave{0.4});
  cir::add_inverter(ckt, "inv", in, out, vdd, tech);
  const std::uint64_t m0 = matrix_stamp_count();
  const cir::DcResult dc = cir::solve_dc(ckt);
  ASSERT_GT(dc.newton_iterations, 4);
  EXPECT_EQ(matrix_stamp_count() - m0,
            static_cast<std::uint64_t>(dc.newton_iterations));
}

TEST(FactorOnce, DcSolverStampsOnEveryCall) {
  // DcSolver's caller may change element values between solves, so each
  // solve stamps afresh even for a linear circuit.
  cir::Circuit ckt = make_rc_ladder(6, 100.0, 1e-15);
  cir::DcSolver solver(ckt);
  const std::uint64_t m0 = matrix_stamp_count();
  (void)solver.solve();
  (void)solver.solve();
  EXPECT_EQ(matrix_stamp_count() - m0, 2u);
}

// ---------------------------------------------------------------------------
// 16 x 128 bus pins. The line constants are the paper MWCNT line of the
// repository benchmark, written as decimals that round-trip to the same
// doubles, so the transient uses only IEEE basic arithmetic and the bits
// do not depend on the platform's libm. The values were produced by the
// engine that stamped its matrix on every step and recorded every node.
// ---------------------------------------------------------------------------

cir::BusConfig bus_16x128(int aggressor) {
  cir::BusConfig cfg;
  cfg.line = {20358.511214712562, 35851121.471256271, 4.9290578887627698e-11,
              0.00044976971790443288};
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 100e-6;
  cfg.lines = 16;
  cfg.segments = 128;
  cfg.aggressor = aggressor;
  return cfg;
}

/// The bare 16 x 128 bus with the terminations analyze_bus_crosstalk
/// attaches for `aggressor`, and its 1000-step transient grid.
cir::BusNetlist driven_bus_16x128(int aggressor, cir::TransientOptions* opt) {
  const cir::BusConfig cfg = bus_16x128(aggressor);
  cir::BusNetlist bus = cir::build_bus_netlist(cfg);
  const cir::NodeId in = bus.ckt.node("bus_in");
  bus.ckt.add_vsource("vbus", in, 0,
                      cir::bus_edge_wave(cfg.vdd_v, cfg.edge_time_s));
  for (int l = 0; l < cfg.lines; ++l) {
    const auto k = static_cast<std::size_t>(l);
    bus.ckt.add_resistor("rdrv" + std::to_string(l), l == aggressor ? in : 0,
                         bus.head[k], cfg.driver_ohm);
    bus.ckt.add_capacitor("cl" + std::to_string(l), bus.far[k], 0,
                          cfg.receiver_load_f);
  }
  opt->t_stop_s = cir::bus_settle_time_s(cfg);
  opt->dt_s = opt->t_stop_s / 1000;
  return bus;
}

/// FNV-1a over the bytes of every node's waveform, nodes in id order.
std::uint64_t waveform_digest(const cir::TransientResult& res,
                              cir::NodeId node_count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (cir::NodeId n = 0; n <= node_count; ++n) {
    for (const double v : res.voltage(n)) {
      const auto u = std::bit_cast<std::uint64_t>(v);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (u >> (8 * byte)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(Bus16x128Pins, KpiBitsAtFourAggressors) {
  struct Pin {
    int aggressor;
    int victim;
    std::uint64_t noise, peak_time, delay;
  };
  const std::array<Pin, 4> pins = {{
      {0, 1, 0x3fbf814991156e72, 0x3df10008d48fb139, 0x3debd094bcba52ed},
      {3, 4, 0x3fbb4002e9a77cc4, 0x3df25409852aeb11, 0x3deff7bdca037734},
      {7, 6, 0x3fbb403f92f3c1c2, 0x3df25409852aeb11, 0x3deff79be4c72322},
      {12, 11, 0x3fbb4002e9a79909, 0x3df25409852aeb11, 0x3deff7bdca038327},
  }};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Pin& pin : pins) {
    const cir::BusCrosstalkResult r =
        cir::analyze_bus_crosstalk(bus_16x128(pin.aggressor), 1000);
    EXPECT_EQ(r.unknowns, 2098);
    EXPECT_EQ(r.worst_victim, pin.victim) << "aggressor " << pin.aggressor;
    EXPECT_EQ(bits(r.peak_noise_v), pin.noise) << "aggressor " << pin.aggressor;
    EXPECT_EQ(bits(r.peak_time_s), pin.peak_time)
        << "aggressor " << pin.aggressor;
    EXPECT_EQ(bits(r.aggressor_delay_s), pin.delay)
        << "aggressor " << pin.aggressor;
  }
}

TEST(Bus16x128Pins, FullRecordingDigest) {
  cir::TransientOptions opt;
  const cir::BusNetlist bus = driven_bus_16x128(5, &opt);
  const cir::TransientResult res = cir::simulate_transient(bus.ckt, opt);
  ASSERT_EQ(res.steps(), 1001u);
  EXPECT_EQ(waveform_digest(res, bus.ckt.node_count()), 0x10d7f076acd7fc03ULL);
}

// ---------------------------------------------------------------------------
// Probe recording: a transient records only the nodes its caller names.
// ---------------------------------------------------------------------------

TEST(TransientProbes, RecordedNodesMatchFullRecordingBitForBit) {
  cir::TransientOptions opt;
  opt.t_stop_s = 0.4e-9;
  opt.dt_s = 1e-12;
  cir::Circuit ckt = make_rc_ladder(20, 100.0, 1e-15);
  const cir::TransientResult full = cir::simulate_transient(ckt, opt);
  // Out of id order, with ground and a duplicate.
  opt.probes = {ckt.node("n19"), 0, ckt.node("n3"), ckt.node("n19")};
  const cir::TransientResult probed = cir::simulate_transient(ckt, opt);
  ASSERT_EQ(probed.steps(), full.steps());
  EXPECT_EQ(probed.time(), full.time());
  for (const cir::NodeId n : opt.probes) {
    const auto& a = full.voltage(n);
    const auto& b = probed.voltage(n);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << "node " << n << " step " << i;
    }
  }
}

TEST(TransientProbes, ReadingAnUnrecordedNodeThrowsNamingIt) {
  cir::TransientOptions opt;
  opt.t_stop_s = 0.1e-9;
  opt.dt_s = 1e-12;
  cir::Circuit ckt = make_rc_ladder(5, 100.0, 1e-15);
  const cir::NodeId kept = ckt.node("n4");
  const cir::NodeId dropped = ckt.node("n2");
  opt.probes = {kept};
  const cir::TransientResult res = cir::simulate_transient(ckt, opt);
  EXPECT_EQ(res.voltage(kept).size(), res.steps());
  try {
    (void)res.voltage(dropped);
    FAIL() << "reading an unrecorded node must throw";
  } catch (const cnti::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("node " + std::to_string(dropped) +
                                         " was not recorded"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)res.voltage(ckt.node_count() + 1),
               cnti::PreconditionError);
}

TEST(TransientProbes, OutOfRangeProbeIsRejected) {
  cir::TransientOptions opt;
  opt.t_stop_s = 0.1e-9;
  opt.dt_s = 1e-12;
  const cir::Circuit ckt = make_rc_ladder(3, 100.0, 1e-15);
  opt.probes = {ckt.node_count() + 1};
  EXPECT_THROW((void)cir::simulate_transient(ckt, opt),
               cnti::PreconditionError);
  opt.probes = {-1};
  EXPECT_THROW((void)cir::simulate_transient(ckt, opt),
               cnti::PreconditionError);
}

}  // namespace
