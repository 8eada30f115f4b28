#include "rom/parametrized_rom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "numerics/svd.hpp"
#include "obs/obs.hpp"

namespace cnti::rom {

namespace {

using numerics::MatrixD;

/// One varied axis in its interpolation coordinate: bus conductance
/// stamps are affine in 1/resistance_scale, capacitance stamps in the
/// scale itself, so weights computed in these coordinates make the
/// multilinear blend of the corner matrices *exact* (see header).
struct Axis {
  double lo = 1.0, hi = 1.0;
  bool conductance = false;
};

std::array<Axis, 3> axes_of(const BusTechBox& box) {
  return {Axis{box.lo.resistance_scale, box.hi.resistance_scale, true},
          Axis{box.lo.capacitance_scale, box.hi.capacitance_scale, false},
          Axis{box.lo.coupling_scale, box.hi.coupling_scale, false}};
}

std::array<double, 3> point_values(const BusTechPoint& p) {
  return {p.resistance_scale, p.capacitance_scale, p.coupling_scale};
}

/// Fraction toward the hi corner in the axis's interpolation coordinate.
double axis_fraction(const Axis& a, double value) {
  if (a.lo == a.hi) return 0.0;
  const double u = a.conductance ? 1.0 / value : value;
  const double u_lo = a.conductance ? 1.0 / a.lo : a.lo;
  const double u_hi = a.conductance ? 1.0 / a.hi : a.hi;
  return (u - u_lo) / (u_hi - u_lo);
}

/// Deterministic interior probe fraction for validate_against_mna: a
/// per-axis golden-ratio-ish stride folded into (0.15, 0.85), so probes
/// never land on an anchor and spread over the box without an RNG.
double interior_fraction(int probe, int axis) {
  static constexpr double kStride[3] = {0.6180339887, 0.4142135624,
                                        0.3183098862};
  const double x = static_cast<double>(probe + 1) * kStride[axis];
  return 0.15 + 0.7 * (x - std::floor(x));
}

/// The technology point at per-axis fractions of the box (raw scale
/// values; a collapsed axis stays at its bound).
BusTechPoint box_point(const std::array<Axis, 3>& axes,
                       const std::array<double, 3>& frac) {
  std::array<double, 3> v{};
  for (std::size_t a = 0; a < 3; ++a) {
    v[a] = axes[a].lo + frac[a] * (axes[a].hi - axes[a].lo);
  }
  return {v[0], v[1], v[2]};
}

/// Sizing probes: the box centre plus the 2^k factorial points at
/// fractions 0.1 / 0.9 of every varied axis — interior and off the
/// anchors, but near them, where the compressed basis is weakest (it
/// keeps what the corners share), and off validate_against_mna's stride
/// sequence.
std::vector<BusTechPoint> sizing_points(const std::array<Axis, 3>& axes) {
  std::vector<BusTechPoint> out = {box_point(axes, {0.5, 0.5, 0.5})};
  for (unsigned mask = 0; mask < 8; ++mask) {
    std::array<double, 3> frac{};
    bool valid = true;
    for (std::size_t a = 0; a < 3; ++a) {
      const bool high = ((mask >> a) & 1U) != 0;
      if (axes[a].lo == axes[a].hi && high) valid = false;
      frac[a] = high ? 0.9 : 0.1;
    }
    if (valid) out.push_back(box_point(axes, frac));
  }
  return out;
}

/// Worst relative noise and delay error of a ROM result against the full
/// MNA one: noise against |MNA peak| (floored at 1e-12 vdd), delay against
/// the MNA delay, and a full miss (1.0) when only one side never crosses.
std::pair<double, double> relative_errors(
    const circuit::BusCrosstalkResult& rom,
    const circuit::BusCrosstalkResult& mna, double vdd_v) {
  const double noise_den = std::max(std::abs(mna.peak_noise_v), 1e-12 * vdd_v);
  const double noise = std::abs(rom.peak_noise_v - mna.peak_noise_v) / noise_den;
  const bool rom_nan = std::isnan(rom.aggressor_delay_s);
  const bool mna_nan = std::isnan(mna.aggressor_delay_s);
  double delay = 0.0;
  if (rom_nan != mna_nan) {
    delay = 1.0;
  } else if (!mna_nan) {
    delay = std::abs(rom.aggressor_delay_s - mna.aggressor_delay_s) /
            mna.aggressor_delay_s;
  }
  return {noise, delay};
}

circuit::BusDrive drive_of(int aggressor, const BusScenario& sc) {
  circuit::BusDrive drive;
  drive.aggressor = aggressor;
  drive.driver_ohm = sc.driver_ohm;
  drive.vdd_v = sc.vdd_v;
  drive.edge_time_s = sc.edge_time_s;
  drive.receiver_load_f = sc.receiver_load_f;
  return drive;
}

/// Inner product with four interleaved partial sums: independent add
/// chains the compiler keeps in flight (one running sum is bound by add
/// latency). The association is fixed, so results are deterministic.
double dot4(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = a.size();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

using Basis = std::vector<std::vector<double>>;

/// The stacked corner bases W = [W_1 ... W_k] factored as W = Q R: Q the
/// orthonormal merged basis, R (Q.size() x columns of W) the recorded
/// merge coefficients. A deflated column keeps its projection onto Q and
/// drops a residual below deflation_tol of its norm.
struct MergedBasis {
  Basis q;
  MatrixD r;
};

/// MGS with one reorthogonalization pass over the corner bases in corner
/// order (the scheme prima_reduce uses), recording the coefficients.
MergedBasis merge_bases(std::vector<Basis> corner_bases, double deflation_tol) {
  const obs::ObsSpan span("prom.merge", "rom");
  MergedBasis out;
  std::vector<std::vector<double>> coeffs;
  for (Basis& cb : corner_bases) {
    for (std::vector<double>& w : cb) {
      std::vector<double> coeff(out.q.size(), 0.0);
      const double initial = std::sqrt(dot4(w, w));
      if (initial > 0.0) {
        for (int pass = 0; pass < 2; ++pass) {
          for (std::size_t i = 0; i < out.q.size(); ++i) {
            const std::vector<double>& v = out.q[i];
            const double h = dot4(v, w);
            if (h == 0.0) continue;
            coeff[i] += h;
            for (std::size_t k = 0; k < w.size(); ++k) w[k] -= h * v[k];
          }
        }
        const double remaining = std::sqrt(dot4(w, w));
        if (remaining > deflation_tol * initial) {
          for (double& x : w) x /= remaining;
          out.q.push_back(std::move(w));
          coeff.push_back(remaining);
        }
      }
      coeffs.push_back(std::move(coeff));
    }
  }
  out.r = MatrixD(out.q.size(), coeffs.size());
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    for (std::size_t i = 0; i < coeffs[j].size(); ++i) out.r(i, j) = coeffs[j][i];
  }
  return out;
}

/// Compression ("poor man's TBR"): with R = U S Y^T, the columns of
/// Q U are W's dominant directions in descending singular-value order, so
/// every leading r of them is the best rank-r basis for W. Orthonormal,
/// because Q is and U is orthogonal.
Basis pod_basis(const MergedBasis& merged) {
  const obs::ObsSpan span("prom.pod", "rom");
  const numerics::SvdResult svd = numerics::svd(merged.r);
  const std::size_t p = merged.q.size();
  const std::size_t n = merged.q.front().size();
  Basis v(p, std::vector<double>(n, 0.0));
  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t i = 0; i < p; ++i) {
      const double u = svd.u(i, k);
      const std::vector<double>& qi = merged.q[i];
      for (std::size_t r = 0; r < n; ++r) v[k][r] += u * qi[r];
    }
  }
  return v;
}

bool same_matrix(const numerics::SparseMatrix& a,
                 const numerics::SparseMatrix& b) {
  return a.row_ptr() == b.row_ptr() && a.col_indices() == b.col_indices() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

/// V^T A V (p x p) for the p basis vectors of `v`.
MatrixD project(const numerics::SparseMatrix& a, const Basis& v) {
  const std::size_t p = v.size();
  MatrixD out(p, p);
  std::vector<double> av(v.front().size());
  for (std::size_t j = 0; j < p; ++j) {
    a.multiply(v[j], av);
    for (std::size_t i = 0; i < p; ++i) out(i, j) = dot4(v[i], av);
  }
  return out;
}

/// The leading rows x cols block of `m`.
MatrixD leading(const MatrixD& m, std::size_t rows, std::size_t cols) {
  MatrixD out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) out(i, j) = m(i, j);
  }
  return out;
}

/// Full sparse-MNA transients of the sizing reduction: the nominal drive,
/// a fixed grid (sizing reads only the topology, box and aggressor).
constexpr int kSizingSteps = 200;
/// The probes must meet a quarter of the budget: measured on the 16 x 128
/// study box, held-out interior points and lighter far-end loads than the
/// nominal 0.2 fF run up to ~3x the worst probe error.
constexpr double kSizingTolerance = ParametrizedBusRom::kErrorBudget / 4.0;

}  // namespace

ParametrizedBusRom::ParametrizedBusRom(const circuit::BusTopology& nominal,
                                       const BusTechBox& box, int aggressor,
                                       PrimaOptions corner_options)
    : topology_(nominal),
      box_(box),
      aggressor_(aggressor < 0 ? nominal.lines / 2 : aggressor) {
  CNTI_EXPECTS(aggressor_ >= 0 && aggressor_ < topology_.lines,
               "ParametrizedBusRom: aggressor index out of range");
  static const obs::Histogram order_hist = obs::histogram("cnti.rom.order");
  const obs::ObsSpan build_span("prom.build", "rom");
  const std::array<Axis, 3> axes = axes_of(box_);
  for (const Axis& a : axes) {
    CNTI_EXPECTS(a.lo > 0.0 && a.hi >= a.lo,
                 "ParametrizedBusRom: axis bounds must satisfy 0 < lo <= hi");
  }

  // Every corner reduction shares the nominal topology's expansion point
  // (the same settle-time corner the topology-keyed BusRom picks), so the
  // corner Krylov spaces approximate the same frequency band and their
  // union stays a meaningful shared basis.
  circuit::BusDrive nominal_drive;
  nominal_drive.aggressor = aggressor_;
  PrimaOptions opt = corner_options;
  if (opt.expansion_rad_per_s <= 0.0) {
    opt.expansion_rad_per_s =
        20.0 / circuit::bus_settle_time_s(topology_, nominal_drive);
  }

  // Corner enumeration: resistance axis fastest, lexicographic, collapsed
  // axes contributing a single value — a degenerate box has one corner and
  // the model coincides with an ordinary BusRom of the nominal topology.
  const auto axis_values = [](const Axis& a) {
    return a.lo == a.hi ? std::vector<double>{a.lo}
                        : std::vector<double>{a.lo, a.hi};
  };
  for (const double cc : axis_values(axes[2])) {
    for (const double c : axis_values(axes[1])) {
      for (const double r : axis_values(axes[0])) {
        corner_points_.push_back({r, c, cc});
      }
    }
  }

  std::vector<StateSpace> corner_ss;
  corner_ss.reserve(corner_points_.size());
  for (const BusTechPoint& cp : corner_points_) {
    corner_ss.push_back(extract_bus_state_space(topology_at(cp)).ss);
  }
  const StateSpace& ss0 = corner_ss.front();
  full_order_ = ss0.size;
  input_names_ = ss0.input_names;
  output_names_ = ss0.output_names;
  // The BusRom budget: three block moments of the 2 x lines ports.
  const int budget_order = std::min(6 * topology_.lines, full_order_ / 2);

  if (corner_points_.size() == 1) {
    // A single corner is the BusRom reduction verbatim (same PRIMA call,
    // same projection arithmetic), bit for bit.
    if (opt.order <= 0) opt.order = budget_order;
    ReducedModel rm = prima_reduce(ss0, opt);
    corner_gr_ = {rm.gr()};
    corner_cr_ = {rm.cr()};
    br_ = rm.br();
    lr_ = rm.lr();
    basis_size_ = static_cast<std::size_t>(rm.order());
  } else {
    // Start at one block moment per corner; while even the full merged
    // rank misses the budget, add a block up to the BusRom budget.
    const int block = ss0.inputs();
    int corner_order = opt.order > 0 ? opt.order : std::min(block, budget_order);
    SizingReference reference;
    for (;;) {
      opt.order = corner_order;
      std::vector<Basis> corner_bases;
      corner_bases.reserve(corner_ss.size());
      for (const StateSpace& ss : corner_ss) {
        corner_bases.push_back(prima_basis(ss, opt));
      }
      project_corners(corner_ss,
                      pod_basis(merge_bases(std::move(corner_bases),
                                            opt.deflation_tol)));
      if (size_to_budget(reference) || corner_order >= budget_order) break;
      corner_order = std::min(corner_order + block, budget_order);
    }
  }
  order_hist.record(static_cast<std::uint64_t>(basis_size_));
}

void ParametrizedBusRom::project_corners(
    const std::vector<StateSpace>& corner_ss,
    const std::vector<std::vector<double>>& v) {
  // Corners that differ only on the capacitance axes share G (and those
  // that differ only in resistance share C): project each distinct matrix
  // once. B and L are port incidence columns, independent of element
  // values, so one projection from corner 0 serves every corner.
  const obs::ObsSpan span("prom.project", "rom");
  const std::size_t q = v.size();
  const std::size_t n = v.front().size();
  corner_gr_.clear();
  corner_cr_.clear();
  for (std::size_t k = 0; k < corner_ss.size(); ++k) {
    const StateSpace& ss = corner_ss[k];
    std::size_t g_from = k, c_from = k;
    for (std::size_t e = 0; e < k; ++e) {
      if (g_from == k && same_matrix(corner_ss[e].g, ss.g)) g_from = e;
      if (c_from == k && same_matrix(corner_ss[e].c, ss.c)) c_from = e;
    }
    corner_gr_.push_back(g_from < k ? corner_gr_[g_from] : project(ss.g, v));
    corner_cr_.push_back(c_from < k ? corner_cr_[c_from] : project(ss.c, v));
  }
  const StateSpace& ss0 = corner_ss.front();
  br_ = MatrixD(q, ss0.b.cols());
  lr_ = MatrixD(q, ss0.l.cols());
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < ss0.b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) s += v[i][r] * ss0.b(r, j);
      br_(i, j) = s;
    }
    for (std::size_t j = 0; j < ss0.l.cols(); ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) s += v[i][r] * ss0.l(r, j);
      lr_(i, j) = s;
    }
  }
  basis_size_ = q;
}

bool ParametrizedBusRom::size_to_budget(SizingReference& reference) {
  const obs::ObsSpan span("prom.size", "rom");
  const std::array<Axis, 3> axes = axes_of(box_);
  if (reference.points.empty()) {
    reference.points = sizing_points(axes);
    const circuit::BusDrive drive = drive_of(aggressor_, reference.scenario);
    for (const BusTechPoint& p : reference.points) {
      reference.mna.push_back(circuit::analyze_bus_crosstalk(
          circuit::make_bus_config(topology_at(p), drive), kSizingSteps));
    }
  }

  // The basis is ordered by singular value, so the order-r model is the
  // leading r x r block of the full-rank projection (bit for bit what a
  // projection through the first r vectors computes).
  const std::vector<MatrixD> full_g = corner_gr_, full_c = corner_cr_;
  const MatrixD full_b = br_, full_l = lr_;
  const auto truncate = [&](std::size_t r) {
    for (std::size_t k = 0; k < full_g.size(); ++k) {
      corner_gr_[k] = leading(full_g[k], r, r);
      corner_cr_[k] = leading(full_c[k], r, r);
    }
    br_ = leading(full_b, r, full_b.cols());
    lr_ = leading(full_l, r, full_l.cols());
    basis_size_ = r;
  };
  std::vector<circuit::BusCrosstalkResult> rom(reference.points.size());
  const auto meets_budget = [&](std::size_t r) {
    truncate(r);
    BusLanes lanes = bus_lanes(reference.scenario, kSizingSteps);
    evaluate(reference.points, lanes, rom);
    for (std::size_t i = 0; i < rom.size(); ++i) {
      const auto [noise, delay] =
          relative_errors(rom[i], reference.mna[i], reference.scenario.vdd_v);
      if (!(noise <= kSizingTolerance && delay <= kSizingTolerance)) {
        return false;
      }
    }
    return true;
  };

  const std::size_t full = full_g.front().rows();
  if (!meets_budget(full)) {
    truncate(full);
    return false;
  }
  // Smallest passing order by bisection; `hi` always passes.
  std::size_t lo = 1, hi = full;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (meets_budget(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  truncate(hi);
  return true;
}

circuit::BusTopology ParametrizedBusRom::topology_at(
    const BusTechPoint& p) const {
  circuit::BusTopology t = topology_;
  t.line.resistance_per_m *= p.resistance_scale;
  t.line.capacitance_per_m *= p.capacitance_scale;
  t.coupling_cap_per_m *= p.coupling_scale;
  return t;
}

ReducedModel ParametrizedBusRom::model_at(const BusTechPoint& p) const {
  MatrixD gr(basis_size_, basis_size_), cr(basis_size_, basis_size_);
  blend_into(p, gr, cr);
  return ReducedModel(std::move(gr), std::move(cr), br_, lr_, input_names_,
                      output_names_, full_order_);
}

void ParametrizedBusRom::blend_into(const BusTechPoint& p, MatrixD& gr,
                                    MatrixD& cr) const {
  static const obs::Histogram blend_hist = obs::histogram("cnti.rom.blend_ns");
  const obs::ObsSpan blend_span("rom.blend", "rom", blend_hist);
  const std::array<Axis, 3> axes = axes_of(box_);
  const std::array<double, 3> values = point_values(p);
  std::array<double, 3> frac{};
  for (std::size_t a = 0; a < 3; ++a) {
    CNTI_EXPECTS(values[a] >= axes[a].lo && values[a] <= axes[a].hi,
                 "ParametrizedBusRom: technology point outside the box");
    frac[a] = axis_fraction(axes[a], values[a]);
  }

  const std::size_t q = basis_size_;
  CNTI_EXPECTS(gr.rows() == q && gr.cols() == q && cr.rows() == q &&
                   cr.cols() == q,
               "ParametrizedBusRom: blend target must be order() x order()");
  std::fill(gr.data(), gr.data() + q * q, 0.0);
  std::fill(cr.data(), cr.data() + q * q, 0.0);
  for (std::size_t ci = 0; ci < corner_points_.size(); ++ci) {
    const std::array<double, 3> cv = point_values(corner_points_[ci]);
    double w = 1.0;
    for (std::size_t a = 0; a < 3; ++a) {
      if (axes[a].lo == axes[a].hi) continue;
      w *= cv[a] == axes[a].hi ? frac[a] : 1.0 - frac[a];
    }
    if (w == 0.0) continue;
    const MatrixD& cg = corner_gr_[ci];
    const MatrixD& cc = corner_cr_[ci];
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        gr(i, j) += w * cg(i, j);
        cr(i, j) += w * cc(i, j);
      }
    }
  }
}

double ParametrizedBusRom::window_s(const BusTechPoint& p,
                                    const BusScenario& sc) const {
  return circuit::bus_settle_time_s(topology_at(p), drive_of(aggressor_, sc));
}

circuit::BusCrosstalkResult ParametrizedBusRom::evaluate(
    const BusTechPoint& p, const BusScenario& sc, int time_steps) const {
  BusLanes lanes = bus_lanes(sc, time_steps);
  circuit::BusCrosstalkResult out;
  evaluate({&p, 1}, lanes, {&out, 1});
  return out;
}

BusLanes ParametrizedBusRom::bus_lanes(const BusScenario& sc,
                                       int time_steps) const {
  return BusLanes(br_, lr_, topology_.lines, aggressor_, sc, time_steps);
}

void ParametrizedBusRom::evaluate(
    std::span<const BusTechPoint> points, BusLanes& lanes,
    std::span<circuit::BusCrosstalkResult> out) const {
  CNTI_EXPECTS(out.size() == points.size(),
               "ParametrizedBusRom: one result slot per point");
  CNTI_EXPECTS(&lanes.br() == &br_,
               "ParametrizedBusRom: lanes come from another ROM's bus_lanes()");
  static const obs::Counter evaluations = obs::counter("cnti.rom.evaluations");
  static const obs::Histogram eval_hist =
      obs::histogram("cnti.rom.evaluate_ns");
  for (std::size_t lo = 0; lo < points.size(); lo += kLanes) {
    const std::size_t n = std::min(kLanes, points.size() - lo);
    evaluations.add(n);
    const obs::ObsSpan eval_span("rom.evaluate", "rom", eval_hist);
    lanes.begin(n);
    for (std::size_t l = 0; l < n; ++l) {
      const BusTechPoint& p = points[lo + l];
      blend_into(p, lanes.bare_g(), lanes.bare_c());
      lanes.load(l, window_s(p, lanes.scenario()));
    }
    lanes.run();
    for (std::size_t l = 0; l < n; ++l) out[lo + l] = lanes.result(l);
  }
}

ParamRomValidation ParametrizedBusRom::validate_against_mna(
    const BusScenario& sc, int probes, int time_steps) const {
  CNTI_EXPECTS(probes >= 1, "ParametrizedBusRom: need at least one probe");
  const obs::ObsSpan validate_span("prom.validate", "rom");
  const std::array<Axis, 3> axes = axes_of(box_);
  ParamRomValidation out;
  out.probes = probes;
  for (int k = 0; k < probes; ++k) {
    BusTechPoint p;
    std::array<double*, 3> fields = {&p.resistance_scale,
                                     &p.capacitance_scale,
                                     &p.coupling_scale};
    for (int a = 0; a < 3; ++a) {
      const Axis& ax = axes[static_cast<std::size_t>(a)];
      *fields[static_cast<std::size_t>(a)] =
          ax.lo + interior_fraction(k, a) * (ax.hi - ax.lo);
    }

    const circuit::BusCrosstalkResult rom_res = evaluate(p, sc, time_steps);
    const circuit::BusCrosstalkResult mna_res = circuit::analyze_bus_crosstalk(
        circuit::make_bus_config(topology_at(p), drive_of(aggressor_, sc)),
        time_steps);
    const auto [noise, delay] = relative_errors(rom_res, mna_res, sc.vdd_v);
    out.max_noise_rel_err = std::max(out.max_noise_rel_err, noise);
    out.max_delay_rel_err = std::max(out.max_delay_rel_err, delay);
  }
  static const obs::Gauge error_gauge =
      obs::gauge("cnti.rom.validate_error_pct");
  error_gauge.set(100.0 *
                  std::max(out.max_noise_rel_err, out.max_delay_rel_err));
  return out;
}

}  // namespace cnti::rom
