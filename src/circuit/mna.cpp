#include "circuit/mna.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "numerics/ordering.hpp"
#include "numerics/sparse.hpp"
#include "numerics/sparse_lu.hpp"
#include "obs/obs.hpp"

namespace cnti::circuit {

namespace {

using numerics::CsrAssembler;
using numerics::LuFactorization;
using numerics::MatrixD;
using numerics::SparseLu;

/// Always-on conductance from every node to ground; keeps matrices
/// non-singular with floating gates/capacitive nodes.
constexpr double kGminFloor = 1e-12;

/// Linearized MOSFET at an operating point: channel current drain->source
/// and its derivatives w.r.t. the three terminal voltages.
struct MosLin {
  double ids = 0.0;
  double d_vd = 0.0;
  double d_vg = 0.0;
  double d_vs = 0.0;
};

/// Square-law NMOS with vds >= 0 (caller handles swapping/mirroring):
/// returns {ids, gm, gds}.
struct SquareLaw {
  double ids = 0.0, gm = 0.0, gds = 0.0;
};

SquareLaw nmos_square_law(double vgs, double vds, double vt, double beta,
                          double lambda) {
  SquareLaw out;
  const double vov = vgs - vt;
  if (vov <= 0.0) {
    return out;  // cutoff (gmin floor supplies leakage conductance)
  }
  const double clm = 1.0 + lambda * vds;
  if (vds < vov) {  // triode
    out.ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
    out.gm = beta * vds * clm;
    out.gds = beta * ((vov - vds) * clm +
                      lambda * (vov * vds - 0.5 * vds * vds));
  } else {  // saturation
    out.ids = 0.5 * beta * vov * vov * clm;
    out.gm = beta * vov * clm;
    out.gds = 0.5 * beta * vov * vov * lambda;
  }
  return out;
}

MosLin eval_mosfet(const MosfetParams& p, double vd, double vg, double vs) {
  // PMOS mirrors to NMOS in negated coordinates:
  // ids_p(vd,vg,vs) = -ids_n(-vd,-vg,-vs) with vt_n = |vt_p|; by the chain
  // rule the derivatives transfer with unchanged sign.
  if (p.is_pmos) {
    MosfetParams n = p;
    n.is_pmos = false;
    n.vt_v = std::abs(p.vt_v);
    const MosLin m = eval_mosfet(n, -vd, -vg, -vs);
    return {-m.ids, m.d_vd, m.d_vg, m.d_vs};
  }
  // Symmetric device: swap drain/source when vds < 0.
  if (vd < vs) {
    const MosLin m = eval_mosfet(p, vs, vg, vd);
    return {-m.ids, -m.d_vs, -m.d_vg, -m.d_vd};
  }
  const SquareLaw sq = nmos_square_law(vg - vs, vd - vs, p.vt_v, p.beta(),
                                       p.lambda_per_v);
  return {sq.ids, sq.gds, sq.gm, -(sq.gm + sq.gds)};
}

/// Index map: unknowns are node voltages 1..N, then vsource branch
/// currents, then inductor branch currents.
struct Layout {
  int nodes = 0;
  int vsrc_offset = 0;
  int ind_offset = 0;
  int size = 0;

  explicit Layout(const Circuit& ckt) {
    nodes = ckt.node_count();
    vsrc_offset = nodes;
    ind_offset = vsrc_offset + static_cast<int>(ckt.vsources().size());
    size = ind_offset + static_cast<int>(ckt.inductors().size());
  }

  /// Row/column of a node voltage, or -1 for ground.
  static int nv(NodeId n) { return n - 1; }
};

/// Newton limits. DC iterates to a tighter update norm than a transient
/// step, whose initial guess is already the previous step's solution.
constexpr int kDcMaxNewton = 200;
constexpr double kDcNewtonTolerance = 1e-12;
constexpr int kTransientMaxNewton = 100;
constexpr double kTransientNewtonTolerance = 1e-9;

/// Dense backend of the reference oracle: stamps into a MatrixD and
/// factorizes from scratch on every solve.
class DenseBackend {
 public:
  explicit DenseBackend(int size) : n_(static_cast<std::size_t>(size)) {}

  void begin() { a_ = MatrixD(n_, n_); }
  void add(int r, int c, double v) {
    a_(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
  }
  void end() {}

  std::vector<double> solve(const std::vector<double>& b) const {
    return LuFactorization<double>(a_).solve(b);
  }

 private:
  std::size_t n_;
  MatrixD a_;
};

/// The engine's backend: the stamp stream freezes a CSR pattern on the
/// first assembly (stamp-slot replay afterwards), an approximate-minimum-
/// degree column pre-permutation is computed from that pattern before the
/// first factorization, and the SparseLu reuses its symbolic analysis
/// across every later factorization — all once per topology.
///
/// Factor once per distinct matrix: solve() refactorizes only when the
/// assembled values differ bitwise from the values last factored. A linear
/// circuit at a fixed timestep therefore only back-substitutes once its
/// companion matrix is factored; since a replay of identical values
/// reproduces the stored factors bit for bit, the skip never changes a
/// result. The comparison is on bits, not operator==, so a -0.0 <-> +0.0
/// flip or a value turning NaN still refactors. When nothing was assembled
/// since the last solve, the values are the ones that solve factored or
/// compared equal, so the comparison itself is skipped.
class SparseBackend {
 public:
  explicit SparseBackend(int size)
      : assembler_(static_cast<std::size_t>(size)) {}

  void begin() { assembler_.begin(); }
  void add(int r, int c, double v) {
    assembler_.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c),
                   v);
  }
  void end() {
    assembler_.end();
    assembled_ = true;
  }

  std::vector<double> solve(const std::vector<double>& b) {
    const numerics::SparseMatrix& a = assembler_.matrix();
    if (!ordered_) {
      // The pattern is frozen by the first end(); the stamp stream cannot
      // diverge afterwards, so the ordering holds for the backend's life.
      lu_.set_column_ordering(numerics::amd_ordering(a));
      ordered_ = true;
    }
    // lu_.analyzed() is false after a throwing factorize(), so a failed
    // attempt is never mistaken for stored factors.
    if (assembled_ || !lu_.analyzed()) {
      const std::vector<double>& values = a.values();
      const bool unchanged =
          lu_.analyzed() && factored_values_.size() == values.size() &&
          std::memcmp(factored_values_.data(), values.data(),
                      values.size() * sizeof(double)) == 0;
      if (!unchanged) {
        lu_.factorize(a);
        factored_values_ = values;
      }
      assembled_ = false;
    }
    return lu_.solve(b);
  }

 private:
  CsrAssembler assembler_;
  SparseLu lu_;
  bool ordered_ = false;
  bool assembled_ = false;  ///< A pass ended since the last solve().
  std::vector<double> factored_values_;  ///< Values lu_ last factored.
};

/// Backend-generic stamp helpers that skip the ground row/column.
template <typename Backend>
void stamp_g(Backend& a, NodeId i, NodeId j, double g) {
  const int ri = Layout::nv(i), rj = Layout::nv(j);
  if (ri >= 0) a.add(ri, ri, g);
  if (rj >= 0) a.add(rj, rj, g);
  if (ri >= 0 && rj >= 0) {
    a.add(ri, rj, -g);
    a.add(rj, ri, -g);
  }
}

template <typename Backend>
void stamp_entry(Backend& a, int row, int col, double v) {
  if (row >= 0 && col >= 0) a.add(row, col, v);
}

void stamp_rhs(std::vector<double>& b, int row, double v) {
  if (row >= 0) b[static_cast<std::size_t>(row)] += v;
}

/// Shared nonlinear-system assembly and Newton for DC and the transient
/// steps, generic over the linear backend. The reactive elements stamp
/// their trapezoidal companions; in DC mode (before begin_transient()) the
/// same slots are stamped with zeros — capacitors open, inductors 0 V
/// branches — so DC and every transient step assemble one pattern.
///
/// Assembly is two passes over the elements in one fixed order: the matrix
/// pass stamps the Jacobian, the right-hand-side pass builds b, so every
/// matrix slot and every b[row] takes its additions in the same order as a
/// single combined pass would. A circuit without MOSFETs has a matrix that
/// depends only on g_min and dt, so it is stamped once per DC point and
/// once at the fixed timestep; every later Newton solve builds b alone.
class Assembler {
 public:
  explicit Assembler(const Circuit& ckt)
      : ckt_(ckt), layout_(ckt), linear_(ckt.mosfets().empty()) {}

  const Layout& layout() const { return layout_; }

  /// Matrix pass: the Jacobian at candidate solution x into `backend`.
  /// The stamp stream below is a fixed sequence for a fixed circuit — the
  /// sparse backend's pattern-frozen replay depends on that.
  template <typename Backend>
  void assemble_matrix(const std::vector<double>& x, double gmin,
                       Backend& a) const {
    static const obs::Counter stamps = obs::counter("cnti.mna.matrix_stamps");
    stamps.add();
    a.begin();
    for (int n = 1; n <= layout_.nodes; ++n) {
      a.add(n - 1, n - 1, gmin + kGminFloor);
    }
    for (const auto& r : ckt_.resistors()) {
      stamp_g(a, r.a, r.b, 1.0 / r.ohms);
    }
    for (std::size_t k = 0; k < ckt_.vsources().size(); ++k) {
      const auto& v = ckt_.vsources()[k];
      const int br = layout_.vsrc_offset + static_cast<int>(k);
      stamp_entry(a, Layout::nv(v.plus), br, 1.0);
      stamp_entry(a, Layout::nv(v.minus), br, -1.0);
      stamp_entry(a, br, Layout::nv(v.plus), 1.0);
      stamp_entry(a, br, Layout::nv(v.minus), -1.0);
    }
    for (const auto& m : ckt_.mosfets()) {
      const MosLin lin = eval_mosfet(m.params, voltage(x, m.drain),
                                     voltage(x, m.gate), voltage(x, m.source));
      // Current enters drain, leaves source. All conductance stamps are
      // issued even in cutoff (value 0) so the pattern is region-free.
      const int rd = Layout::nv(m.drain), rs = Layout::nv(m.source);
      stamp_entry(a, rd, Layout::nv(m.drain), lin.d_vd);
      stamp_entry(a, rd, Layout::nv(m.gate), lin.d_vg);
      stamp_entry(a, rd, Layout::nv(m.source), lin.d_vs);
      stamp_entry(a, rs, Layout::nv(m.drain), -lin.d_vd);
      stamp_entry(a, rs, Layout::nv(m.gate), -lin.d_vg);
      stamp_entry(a, rs, Layout::nv(m.source), -lin.d_vs);
    }
    const bool dc = dt_ == 0.0;
    for (const auto& c : ckt_.capacitors()) {
      stamp_g(a, c.a, c.b, dc ? 0.0 : 2.0 * c.farads / dt_);
    }
    for (std::size_t k = 0; k < ckt_.inductors().size(); ++k) {
      const auto& l = ckt_.inductors()[k];
      const int br = layout_.ind_offset + static_cast<int>(k);
      // Branch row: v_a - v_b - req * i = veq.
      stamp_entry(a, Layout::nv(l.a), br, 1.0);
      stamp_entry(a, Layout::nv(l.b), br, -1.0);
      stamp_entry(a, br, Layout::nv(l.a), 1.0);
      stamp_entry(a, br, Layout::nv(l.b), -1.0);
      const double req = dc ? 0.0 : 2.0 * l.henries / dt_;
      stamp_entry(a, br, br, -req);
    }
    a.end();
  }

  /// Right-hand-side pass at candidate solution x and time time_s.
  void assemble_rhs(const std::vector<double>& x, double time_s,
                    std::vector<double>& b) const {
    b.assign(static_cast<std::size_t>(layout_.size), 0.0);
    for (std::size_t k = 0; k < ckt_.vsources().size(); ++k) {
      const auto& v = ckt_.vsources()[k];
      stamp_rhs(b, layout_.vsrc_offset + static_cast<int>(k),
                waveform_value(v.wave, time_s));
    }
    for (const auto& i : ckt_.isources()) {
      const double val = waveform_value(i.wave, time_s);
      stamp_rhs(b, Layout::nv(i.plus), -val);
      stamp_rhs(b, Layout::nv(i.minus), val);
    }
    for (const auto& m : ckt_.mosfets()) {
      const double vd = voltage(x, m.drain);
      const double vg = voltage(x, m.gate);
      const double vs = voltage(x, m.source);
      const MosLin lin = eval_mosfet(m.params, vd, vg, vs);
      // Norton form: i(v) ~ i0 + sum dv_k * (v_k - v_k0).
      const double i0 =
          lin.ids - lin.d_vd * vd - lin.d_vg * vg - lin.d_vs * vs;
      stamp_rhs(b, Layout::nv(m.drain), -i0);
      stamp_rhs(b, Layout::nv(m.source), i0);
    }
    const bool dc = dt_ == 0.0;
    for (std::size_t k = 0; k < ckt_.capacitors().size(); ++k) {
      const auto& c = ckt_.capacitors()[k];
      const double geq = dc ? 0.0 : 2.0 * c.farads / dt_;
      const double ieq = dc ? 0.0 : geq * cap_v_prev_[k] + cap_i_prev_[k];
      stamp_rhs(b, Layout::nv(c.a), ieq);
      stamp_rhs(b, Layout::nv(c.b), -ieq);
    }
    for (std::size_t k = 0; k < ckt_.inductors().size(); ++k) {
      const auto& l = ckt_.inductors()[k];
      const double req = dc ? 0.0 : 2.0 * l.henries / dt_;
      const double veq = dc ? 0.0 : -req * ind_i_prev_[k] - ind_v_prev_[k];
      stamp_rhs(b, layout_.ind_offset + static_cast<int>(k), veq);
    }
  }

  static double voltage(const std::vector<double>& x, NodeId n) {
    return n == 0 ? 0.0 : x[static_cast<std::size_t>(n - 1)];
  }

  /// Newton iteration until the update norm drops below tolerance. The
  /// backend persists across iterations (and across calls for one
  /// simulation), so symbolic reuse carries over timesteps. A circuit
  /// without MOSFETs assembles the same A and b at every x, so its second
  /// iteration would reproduce the first solution bit for bit: it stops
  /// after one solve. Its matrix is stamped only while it is not current
  /// (see dc() and begin_transient()); the backend still holds it.
  template <typename Backend>
  std::vector<double> newton(Backend& backend, std::vector<double> x,
                             double time_s, double gmin, int max_iter,
                             double tol, int* iterations_out = nullptr) {
    std::vector<double> b;
    for (int it = 0; it < max_iter; ++it) {
      if (!matrix_current_) {
        assemble_matrix(x, gmin, backend);
        matrix_current_ = linear_;
      }
      assemble_rhs(x, time_s, b);
      std::vector<double> x_new = backend.solve(b);
      double delta = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        delta = std::max(delta, std::abs(x_new[i] - x[i]));
      }
      x = std::move(x_new);
      if (linear_ || delta < tol) {
        if (iterations_out) *iterations_out = it + 1;
        return x;
      }
    }
    throw NumericalError("MNA Newton iteration did not converge");
  }

  /// DC operating point at `time_s` (DC mode only). MOSFET circuits step
  /// g_min down from a strong shunt, each stage seeding the next; a linear
  /// circuit's solution does not depend on the seed, so it runs only the
  /// final g_min = 0 stage. Every stage stamps its matrix afresh, so a
  /// caller may change element values between calls.
  template <typename Backend>
  std::vector<double> dc(Backend& backend, double time_s,
                         int* iterations_out) {
    static const obs::Histogram dc_hist = obs::histogram("cnti.mna.dc_ns");
    const obs::ObsSpan span("mna.dc", "circuit", dc_hist);
    std::vector<double> x(static_cast<std::size_t>(layout_.size), 0.0);
    int total = 0;
    for (const double gmin : {1e-3, 1e-6, 1e-9, 0.0}) {
      if (linear_ && gmin != 0.0) continue;
      matrix_current_ = false;
      int iters = 0;
      x = newton(backend, std::move(x), time_s, gmin, kDcMaxNewton,
                 kDcNewtonTolerance, &iters);
      total += iters;
    }
    if (iterations_out) *iterations_out = total;
    return x;
  }

  /// Leaves DC mode: trapezoidal companions at step dt, with the reactive
  /// history taken from the DC operating point x (capacitor currents and
  /// inductor voltages are zero in steady state).
  void begin_transient(double dt, const std::vector<double>& x) {
    dt_ = dt;
    matrix_current_ = false;
    cap_v_prev_.resize(ckt_.capacitors().size());
    cap_i_prev_.assign(ckt_.capacitors().size(), 0.0);
    ind_i_prev_.resize(ckt_.inductors().size());
    ind_v_prev_.assign(ckt_.inductors().size(), 0.0);
    for (std::size_t k = 0; k < ckt_.capacitors().size(); ++k) {
      const auto& c = ckt_.capacitors()[k];
      cap_v_prev_[k] = voltage(x, c.a) - voltage(x, c.b);
    }
    for (std::size_t k = 0; k < ckt_.inductors().size(); ++k) {
      ind_i_prev_[k] = x[static_cast<std::size_t>(layout_.ind_offset) + k];
    }
  }

  /// Advances the reactive history to the accepted step solution x.
  void accept_step(const std::vector<double>& x) {
    for (std::size_t k = 0; k < ckt_.capacitors().size(); ++k) {
      const auto& c = ckt_.capacitors()[k];
      const double v = voltage(x, c.a) - voltage(x, c.b);
      const double geq = 2.0 * c.farads / dt_;
      cap_i_prev_[k] = geq * (v - cap_v_prev_[k]) - cap_i_prev_[k];
      cap_v_prev_[k] = v;
    }
    for (std::size_t k = 0; k < ckt_.inductors().size(); ++k) {
      const auto& l = ckt_.inductors()[k];
      ind_i_prev_[k] = x[static_cast<std::size_t>(layout_.ind_offset) + k];
      ind_v_prev_[k] = voltage(x, l.a) - voltage(x, l.b);
    }
  }

 private:
  const Circuit& ckt_;
  Layout layout_;
  bool linear_;
  double dt_ = 0.0;  ///< 0 in DC mode.
  /// The backend holds this circuit's matrix at the current g_min and dt
  /// (only ever set for a linear circuit).
  bool matrix_current_ = false;
  // Reactive-element history of the last accepted step.
  std::vector<double> cap_v_prev_, cap_i_prev_;
  std::vector<double> ind_i_prev_, ind_v_prev_;
};

template <typename Backend>
DcResult solve_dc_with(Assembler& assembler, Backend& backend,
                       double time_s) {
  const Layout& layout = assembler.layout();
  DcResult out;
  const std::vector<double> x =
      assembler.dc(backend, time_s, &out.newton_iterations);
  out.node_voltages.assign(static_cast<std::size_t>(layout.nodes) + 1, 0.0);
  for (int n = 1; n <= layout.nodes; ++n) {
    out.node_voltages[static_cast<std::size_t>(n)] =
        x[static_cast<std::size_t>(n - 1)];
  }
  out.vsource_currents.assign(x.begin() + layout.vsrc_offset,
                              x.begin() + layout.ind_offset);
  out.inductor_currents.assign(x.begin() + layout.ind_offset, x.end());
  return out;
}

template <typename Backend>
TransientResult simulate_transient_with(const Circuit& ckt,
                                        const TransientOptions& opt) {
  CNTI_EXPECTS(std::isfinite(opt.t_stop_s) && opt.t_stop_s > 0,
               "transient: t_stop_s must be finite and > 0");
  CNTI_EXPECTS(std::isfinite(opt.dt_s) && opt.dt_s > 0 &&
                   opt.dt_s < opt.t_stop_s,
               "transient: dt_s must be finite, > 0 and below t_stop_s");
  static const obs::Histogram transient_hist =
      obs::histogram("cnti.mna.transient_ns");
  const obs::ObsSpan span("mna.transient", "circuit", transient_hist);
  Assembler assembler(ckt);
  const Layout& layout = assembler.layout();
  const double dt = opt.dt_s;

  // Recorded nodes in first-named order: the caller's probes, or every
  // node. slot[node] is the node's row in the waveform table, -1 if absent.
  std::vector<int> slot(static_cast<std::size_t>(layout.nodes) + 1, -1);
  std::vector<NodeId> recorded;
  const auto add_probe = [&](NodeId n) {
    CNTI_EXPECTS(n >= 0 && n <= layout.nodes,
                 "transient: probe node id out of range");
    int& s = slot[static_cast<std::size_t>(n)];
    if (s >= 0) return;
    s = static_cast<int>(recorded.size());
    recorded.push_back(n);
  };
  if (opt.probes.empty()) {
    for (NodeId n = 0; n <= layout.nodes; ++n) add_probe(n);
  } else {
    for (const NodeId n : opt.probes) add_probe(n);
  }

  // Initial condition: the DC operating point at t = 0, the first solve on
  // the backend every step then reuses.
  Backend backend(layout.size);
  std::vector<double> x = assembler.dc(backend, 0.0, nullptr);
  assembler.begin_transient(dt, x);

  // Tolerate floating-point slop in t_stop/dt so exact divisions do not
  // gain a spurious extra step.
  const auto steps = static_cast<std::size_t>(
      std::ceil(opt.t_stop_s / dt - 1e-9)) + 1;
  std::vector<double> time(steps);
  std::vector<std::vector<double>> volt(recorded.size(),
                                        std::vector<double>(steps));
  const auto record = [&](std::size_t step, double t) {
    time[step] = t;
    for (std::size_t k = 0; k < recorded.size(); ++k) {
      volt[k][step] = Assembler::voltage(x, recorded[k]);
    }
  };
  record(0, 0.0);

  for (std::size_t step = 1; step < steps; ++step) {
    const double t = static_cast<double>(step) * dt;
    x = assembler.newton(backend, std::move(x), t, 0.0, kTransientMaxNewton,
                         kTransientNewtonTolerance);
    assembler.accept_step(x);
    record(step, t);
  }

  return TransientResult(std::move(time), std::move(slot), std::move(volt));
}

}  // namespace

TransientResult::TransientResult(std::vector<double> time,
                                 std::vector<std::vector<double>> voltages)
    : time_(std::move(time)),
      slot_(voltages.size()),
      voltages_(std::move(voltages)) {
  for (std::size_t n = 0; n < slot_.size(); ++n) {
    slot_[n] = static_cast<int>(n);
  }
}

TransientResult::TransientResult(std::vector<double> time,
                                 std::vector<int> slot_of_node,
                                 std::vector<std::vector<double>> voltages)
    : time_(std::move(time)),
      slot_(std::move(slot_of_node)),
      voltages_(std::move(voltages)) {
  for (const int s : slot_) {
    CNTI_EXPECTS(s < static_cast<int>(voltages_.size()),
                 "TransientResult: slot outside the waveform table");
  }
}

const std::vector<double>& TransientResult::voltage(NodeId node) const {
  CNTI_EXPECTS(node >= 0 && node < static_cast<NodeId>(slot_.size()),
               "node id out of range");
  const int s = slot_[static_cast<std::size_t>(node)];
  if (s < 0) {
    throw PreconditionError("transient: node " + std::to_string(node) +
                            " was not recorded (name it in "
                            "TransientOptions::probes)");
  }
  return voltages_[static_cast<std::size_t>(s)];
}

struct DcSolver::Impl {
  Assembler assembler;
  // Survives across solve() calls so the ordering and symbolic analysis
  // are paid once per circuit topology.
  SparseBackend backend;
};

DcSolver::DcSolver(const Circuit& ckt)
    : impl_(std::make_unique<Impl>(
          Impl{Assembler(ckt), SparseBackend(Layout(ckt).size)})) {}

DcSolver::~DcSolver() = default;
DcSolver::DcSolver(DcSolver&&) noexcept = default;
DcSolver& DcSolver::operator=(DcSolver&&) noexcept = default;

DcResult DcSolver::solve(double time_s) {
  return solve_dc_with(impl_->assembler, impl_->backend, time_s);
}

DcResult solve_dc(const Circuit& ckt, double time_s) {
  return DcSolver(ckt).solve(time_s);
}

TransientResult simulate_transient(const Circuit& ckt,
                                   const TransientOptions& opt) {
  return simulate_transient_with<SparseBackend>(ckt, opt);
}

namespace reference {

DcResult solve_dc(const Circuit& ckt, double time_s) {
  Assembler assembler(ckt);
  DenseBackend backend(assembler.layout().size);
  return solve_dc_with(assembler, backend, time_s);
}

TransientResult simulate_transient(const Circuit& ckt,
                                   const TransientOptions& opt) {
  return simulate_transient_with<DenseBackend>(ckt, opt);
}

}  // namespace reference

}  // namespace cnti::circuit
