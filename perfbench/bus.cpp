// bus_steps / bus_wide: one circuit::analyze_bus_crosstalk call (DC plus
// trapezoidal transient, kAuto routing, single-threaded) per operation.
// bus_steps is a long time loop on a small bus, where per-step assembly,
// refactorization and solves dominate; bus_wide is a short transient on a
// bus far larger than the LLC, where ordering, symbolic analysis and the
// supernode build dominate. A change that trades analysis cost against
// refactor speed moves the two in opposite directions.
#include <array>
#include <cmath>
#include <exception>
#include <sstream>

#include "bench.hpp"
#include "circuit/crosstalk.hpp"
#include "core/mwcnt_line.hpp"
#include "numerics/ordering.hpp"
#include "numerics/sparse_lu.hpp"
#include "rom/interconnect_rom.hpp"

namespace perfbench {

namespace {

using namespace cnti;

struct Reference {
  int aggressor;
  double peak_noise_v;
  double aggressor_delay_s;
};

struct BusShape {
  int lines;
  int segments;
  int steps;
  int unknowns;
  int probe_reps;  ///< Repetitions of each traced-run layer probe.
  /// The seed picks each operation's aggressor from these pinned cases.
  std::array<Reference, 4> refs;
};

// References pinned from the kAuto path. The scalar kernel agrees to ~3e-12
// relative on 16x128 and ~2e-10 on 64x1024; the tolerance admits either.
constexpr double kRelTol = 1e-7;

const BusShape kBusSteps{16, 128, 1000, 2098, 10,
                         {{{0, 0.12306651870846241, 2.0237908429254803e-10},
                           {3, 0.10644548611135454, 2.3259591909358758e-10},
                           {7, 0.10644910180748256, 2.3259215594291621e-10},
                           {12, 0.10644548611140842, 2.3259591909332002e-10}}}};
const BusShape kBusWide{64, 1024, 20, 65730, 2,
                        {{{0, 0.11307533143337926, 2.2848667493481965e-10},
                          {16, 0.10347884600265453, 2.5936524233703302e-10},
                          {31, 0.10347884599744094, 2.5936524237932723e-10},
                          {47, 0.10347884599714259, 2.5936524238143938e-10}}}};

circuit::BusConfig bus_config(const BusShape& shape, int aggressor) {
  circuit::BusConfig cfg;
  cfg.line = core::make_paper_mwcnt(10, 4.0, 20e3).rlc();
  cfg.coupling_cap_per_m = 30e-12;
  cfg.length_m = 100e-6;
  cfg.lines = shape.lines;
  cfg.segments = shape.segments;
  cfg.aggressor = aggressor;
  return cfg;
}

bool close_to(double got, double want) {
  return std::isfinite(got) && std::abs(got - want) <= kRelTol * std::abs(want);
}

std::string check(const BusShape& shape, const Reference& ref,
                  const circuit::BusCrosstalkResult& r) {
  std::ostringstream why;
  why.precision(17);
  if (r.unknowns != shape.unknowns) {
    why << "unknowns " << r.unknowns << " != " << shape.unknowns << "; ";
  }
  if (!close_to(r.peak_noise_v, ref.peak_noise_v)) {
    why << "aggressor " << ref.aggressor << " peak_noise_v " << r.peak_noise_v
        << " != " << ref.peak_noise_v << "; ";
  }
  if (!close_to(r.aggressor_delay_s, ref.aggressor_delay_s)) {
    why << "aggressor " << ref.aggressor << " aggressor_delay_s " << r.aggressor_delay_s
        << " != " << ref.aggressor_delay_s << "; ";
  }
  return why.str();
}

struct Timings {
  std::vector<double> wall;    ///< Per-call wall seconds.
  std::vector<double> scaled;  ///< The same, times host_scale(1) taken right after.
};

// Runs operations for at least `seconds` (and at least one).
Timings run_phase(const BusShape& shape, Stream& stream, double seconds, Report& report) {
  Timings t;
  const auto start = Clock::now();
  // Start another call only if it is expected to end inside the window.
  while (t.wall.empty() || seconds_since(start) + t.wall.back() <= seconds) {
    const Reference& ref = shape.refs[stream.below(shape.refs.size())];
    const circuit::BusConfig cfg = bus_config(shape, ref.aggressor);
    try {
      const auto t0 = Clock::now();
      const circuit::BusCrosstalkResult r = [&] {
        const obs::ObsSpan span("bench.analyze_bus_crosstalk", "circuit");
        return circuit::analyze_bus_crosstalk(cfg, shape.steps);
      }();
      t.wall.push_back(seconds_since(t0));
      t.scaled.push_back(t.wall.back() * host_scale(1));
      const std::string why = check(shape, ref, r);
      report.op(why.empty(), why);
    } catch (const std::exception& e) {
      report.op(false, e.what());
    }
  }
  return t;
}

// The workload's own trapezoidal companion matrix G + (2/dt) C.
numerics::SparseMatrix companion_matrix(const BusShape& shape) {
  const circuit::BusConfig cfg = bus_config(shape, -1);
  const rom::BusStateSpace bus = rom::extract_bus_state_space(cfg.topology());
  const double dt = circuit::bus_settle_time_s(cfg) / shape.steps;
  numerics::SparseBuilder builder(bus.ss.g.rows(), bus.ss.g.cols());
  const auto add = [&](const numerics::SparseMatrix& m, double scale) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
        builder.add(r, m.col_indices()[k], scale * m.values()[k]);
      }
    }
  };
  add(bus.ss.g, 1.0);
  add(bus.ss.c, 2.0 / dt);
  return builder.build();
}

void layer_probes(const BusShape& shape, Report& report) {
  const circuit::BusConfig cfg = bus_config(shape, -1);
  const int reps = shape.probe_reps;
  report.add("circuit.build_netlist_s", median_time(reps, [&] {
               const obs::ObsSpan span("bench.build_bus_netlist", "circuit");
               (void)circuit::build_bus_netlist(cfg.topology());
             }),
             "s", reps);

  const numerics::SparseMatrix a = companion_matrix(shape);
  std::vector<std::size_t> perm;
  report.add("numerics.amd_s", median_time(reps, [&] {
               const obs::ObsSpan span("bench.amd_ordering", "numerics");
               perm = numerics::amd_ordering(a);
             }),
             "s", reps);

  numerics::SparseLu lu;
  report.add("numerics.lu_analyze_s", median_time(reps, [&] {
               lu = numerics::SparseLu();
               lu.set_column_ordering(perm);
               const obs::ObsSpan span("bench.lu_analyze", "numerics");
               lu.factorize(a);
             }),
             "s", reps);
  report.add("numerics.lu_refactor_s", median_time(reps, [&] {
               const obs::ObsSpan span("bench.lu_refactor", "numerics");
               lu.factorize(a);
             }),
             "s", reps);
  const std::vector<double> b(a.rows(), 1e-3);
  report.add("numerics.lu_solve_s", median_time(reps, [&] {
               const obs::ObsSpan span("bench.lu_solve", "numerics");
               (void)lu.solve(b);
             }),
             "s", reps);
  report.add("numerics.lu_nnz", static_cast<double>(lu.nnz_l() + lu.nnz_u()), "count", 1);
}

}  // namespace

void run_bus(const Args& args, Report& report) {
  const BusShape& shape = args.workload == "bus_steps" ? kBusSteps : kBusWide;
  Stream stream = Stream(args.seed).fork(1);

  // Set-up: input generation and the bare netlist build, repeated at least
  // five times and for at least half a second.
  std::vector<double> setup;
  const auto setup_start = Clock::now();
  while (setup.size() < 5 || seconds_since(setup_start) < 0.5) {
    const auto t0 = Clock::now();
    const circuit::BusConfig cfg = bus_config(shape, shape.refs[stream.below(4)].aggressor);
    (void)circuit::build_bus_netlist(cfg);
    setup.push_back(seconds_since(t0));
  }
  const double setup_scale = host_scale(1);
  report.note("threads", "1");
  report.note("bus", std::to_string(shape.lines) + "x" + std::to_string(shape.segments) +
                         " steps=" + std::to_string(shape.steps) +
                         " unknowns=" + std::to_string(shape.unknowns));

  if (!args.trace) {
    const Timings t = run_phase(shape, stream, args.seconds, report);
    const std::vector<double>& lat = t.scaled;
    const double ops = static_cast<double>(lat.size());
    report.add("setup_s", median(setup) * setup_scale, "s", setup.size());
    report.add("transient_s", median(lat), "s", lat.size());
    report.add("samples_per_s", ops * shape.steps / sum(lat), "1/s", lat.size());
    report.add("request_p50_ms", 1e3 * quantile(lat, 0.5), "ms", lat.size());
    report.add("request_p90_ms", 1e3 * quantile(lat, 0.9), "ms", lat.size());
    report.add("scenarios_per_s", ops / sum(lat), "1/s", lat.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report.note("unscaled", "median call " + std::to_string(median(t.wall)) +
                                " s, median host_scale " +
                                std::to_string(median(t.scaled) / median(t.wall)));
    return;
  }

  const Timings plain = run_phase(shape, stream, args.seconds / 2, report);
  obs::TraceSession session;
  RegistryWindow window;
  const Timings traced = run_phase(shape, stream, args.seconds / 2, report);
  window.close();
  layer_probes(shape, report);
  report.note("trace_file", write_trace(args, session));

  const double ops = static_cast<double>(traced.wall.size());
  const std::size_t n = traced.wall.size();
  const double factorizations = window.counter("cnti.solver.factorizations") +
                                window.counter("cnti.solver.refactorizations");
  const double solves = window.counter("cnti.solver.solves");
  const double factor_busy = window.hist_sum_s("cnti.solver.factor_ns") +
                             window.hist_sum_s("cnti.solver.factor_blocked_ns");
  const double solve_busy = window.hist_sum_s("cnti.solver.solve_ns");
  const double wall = sum(traced.wall);
  report.add("numerics.factorizations", factorizations / ops, "count", n);
  report.add("numerics.solves", solves / ops, "count", n);
  report.add("numerics.factor_per_solve", solves > 0 ? factorizations / solves : 0.0, "ratio", n);
  report.add("numerics.factor_busy_s", factor_busy / ops, "s", n);
  report.add("numerics.solve_busy_s", solve_busy / ops, "s", n);
  report.add("numerics.repivot_fallbacks", window.counter("cnti.solver.repivot_fallbacks") / ops,
             "count", n);
  report.add("numerics.blocked_refactorizations",
             window.counter("cnti.solver.blocked_refactorizations") / ops, "count", n);
  report.add("circuit.self_s", (wall - factor_busy - solve_busy) / ops, "s", n);
  report.add("obs.trace_overhead_pct",
             100.0 * (median(traced.scaled) / median(plain.scaled) - 1.0), "%", n);
}

}  // namespace perfbench
