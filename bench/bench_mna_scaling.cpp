// MNA engine scaling on coupled CNT bus transients of growing size. This is
// the engine-level benchmark behind the ROADMAP scale goals — wide
// multi-line buses (Ting/Kreupl-style CNT via arrays and bus interconnects)
// need thousands of unknowns, which the sparse engine's pattern-frozen
// refactorization handles in near O(nnz) per factorization.
//
// The full 1000-step transient on the 16 x 128 paper bus reports its
// end-to-end wall clock and how many matrix stamps, sparse LU
// factorizations and solves it ran: the bus is linear, so DC and the
// transient share one pattern, each distinct matrix is stamped and factored
// once and each step builds only its right-hand side and takes one solve
// (scripts/bench_gate.sh gates all three counts). A size ladder then climbs
// into the 10^4-10^5-unknown regime: each rung reports the transient
// wall-clock plus the AMD-vs-natural nnz(L+U) of its shifted MNA pencil.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>

#include "circuit/crosstalk.hpp"
#include "circuit/mna.hpp"
#include "core/mwcnt_line.hpp"
#include "numerics/ordering.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"
#include "rom/state_space.hpp"

namespace {

using namespace cnti;

circuit::BusConfig bus_config(int lines, int segments) {
  circuit::BusConfig cfg;
  cfg.line = core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 100e-6;
  cfg.lines = lines;
  cfg.segments = segments;
  return cfg;
}

double timed_bus_seconds(int lines, int segments, int steps,
                         circuit::BusCrosstalkResult* result = nullptr) {
  const circuit::BusConfig cfg = bus_config(lines, segments);
  const auto t0 = std::chrono::steady_clock::now();
  const circuit::BusCrosstalkResult r =
      circuit::analyze_bus_crosstalk(cfg, steps);
  const auto t1 = std::chrono::steady_clock::now();
  if (result) *result = r;
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Fresh plus replayed sparse LU factorizations so far in this process.
double factorization_count() {
  return static_cast<double>(
      obs::counter("cnti.solver.factorizations").value() +
      obs::counter("cnti.solver.refactorizations").value());
}

double solve_count() {
  return static_cast<double>(obs::counter("cnti.solver.solves").value());
}

double matrix_stamp_count() {
  return static_cast<double>(obs::counter("cnti.mna.matrix_stamps").value());
}

void print_reproduction() {
  bench::json().set_name("bench_mna_scaling");
  bench::print_header(
      "MNA engine scaling — sparse LU on coupled CNT buses",
      "A 1000-step transient on the 16 x 128 paper bus with its matrix "
      "stamp, LU factorization and solve counts, then a size ladder (DC + 20 "
      "trapezoidal steps) with the AMD-vs-natural factor fill of each "
      "rung's MNA pencil.");

  // The call's counts are deterministic: DC and the trapezoidal companion
  // matrix are the only distinct matrices, and every step takes one solve.
  circuit::BusCrosstalkResult full;
  const double stamps_before = matrix_stamp_count();
  const double factorizations_before = factorization_count();
  const double solves_before = solve_count();
  const double tfull = timed_bus_seconds(16, 128, 1000, &full);
  const double stamps = matrix_stamp_count() - stamps_before;
  const double factorizations = factorization_count() - factorizations_before;
  const double solves = solve_count() - solves_before;
  std::cout << "\nFull 1000-step transient, 16 x 128 bus ("
            << full.unknowns << " unknowns): " << Table::num(tfull, 4)
            << " s, " << static_cast<long long>(stamps) << " matrix stamps, "
            << static_cast<long long>(factorizations)
            << " LU factorizations, " << static_cast<long long>(solves)
            << " solves, worst victim line " << full.worst_victim
            << ", noise " << Table::num(full.peak_noise_v * 1e3, 4)
            << " mV\n";
  bench::json().set("unknowns", full.unknowns);
  bench::json().set("bus_transient_s_16x128", tfull);
  bench::json().set("bus_matrix_stamps_16x128", stamps);
  bench::json().set("bus_factorizations_16x128", factorizations);
  bench::json().set("bus_solves_16x128", solves);
  bench::json().set("full_noise_mv", full.peak_noise_v * 1e3);

  // --- Size ladder into the 10^4-10^5 regime -----------------------------
  // Each rung reports the AMD-vs-natural factor fill of its shifted MNA
  // pencil G + s C alongside the transient wall-clock.
  constexpr int kSteps = 20;
  struct Case {
    int lines;
    int segments;
  };
  std::cout << "\nSize ladder (AMD ordering, DC + " << kSteps
            << " steps):\n";
  Table ladder({"lines x segs", "unknowns", "transient [s]", "nnz(L+U) nat",
                "nnz(L+U) amd", "fill ratio"});
  int max_unknowns = 0;
  for (const Case c : {Case{16, 128}, Case{24, 256}, Case{32, 400},
                       Case{32, 640}, Case{64, 1024}}) {
    circuit::BusCrosstalkResult r;
    const double ts = timed_bus_seconds(c.lines, c.segments, kSteps, &r);
    // Factor fill of the bare-bus shifted pencil at the analysis corner
    // (the same pattern the transient's companion matrices share).
    const circuit::BusConfig cfg = bus_config(c.lines, c.segments);
    // One dummy port satisfies the extractor's inputs>0 contract; G and C
    // are independent of the port list.
    const rom::StateSpace ss = rom::extract_state_space(
        circuit::build_bus_netlist(cfg).ckt,
        {.ports = {{"p0", 1}}, .observe = {}, .include_sources = false});
    const double s0 = 20.0 / circuit::bus_settle_time_s(cfg);
    numerics::SparseBuilder pencil(ss.g.rows(), ss.g.rows());
    for (std::size_t row = 0; row < ss.g.rows(); ++row) {
      for (std::size_t t2 = ss.g.row_ptr()[row];
           t2 < ss.g.row_ptr()[row + 1]; ++t2) {
        pencil.add(row, ss.g.col_indices()[t2], ss.g.values()[t2]);
      }
      for (std::size_t t2 = ss.c.row_ptr()[row];
           t2 < ss.c.row_ptr()[row + 1]; ++t2) {
        pencil.add(row, ss.c.col_indices()[t2], s0 * ss.c.values()[t2]);
      }
    }
    const numerics::SparseMatrix a = pencil.build();
    numerics::SparseLu natural;
    natural.factorize(a);
    numerics::SparseLu amd;
    amd.set_column_ordering(numerics::amd_ordering(a));
    amd.factorize(a);
    const double nnz_nat =
        static_cast<double>(natural.nnz_l() + natural.nnz_u());
    const double nnz_amd = static_cast<double>(amd.nnz_l() + amd.nnz_u());
    ladder.add_row({std::to_string(c.lines) + " x " +
                        std::to_string(c.segments),
                    std::to_string(r.unknowns), Table::num(ts, 4),
                    std::to_string(natural.nnz_l() + natural.nnz_u()),
                    std::to_string(amd.nnz_l() + amd.nnz_u()),
                    Table::num(nnz_amd / nnz_nat, 4)});
    max_unknowns = std::max(max_unknowns, r.unknowns);
    if (c.lines == 32 && c.segments == 640) {
      bench::json().set("nnz_lu_natural", nnz_nat);
      bench::json().set("nnz_lu_amd", nnz_amd);
      bench::json().set("ladder_top_transient_s", ts);
    }
  }
  ladder.print(std::cout);
  bench::json().set("ladder_max_unknowns", static_cast<double>(max_unknowns));
}

void BM_SparseBusTransient(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  const int segments = static_cast<int>(state.range(1));
  const circuit::BusConfig cfg = bus_config(lines, segments);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::analyze_bus_crosstalk(cfg, 50));
  }
}
BENCHMARK(BM_SparseBusTransient)
    ->Args({4, 16})
    ->Args({8, 64})
    ->Args({16, 128})
    ->Unit(benchmark::kMillisecond);

}  // namespace

CNTI_BENCH_MAIN(print_reproduction)
