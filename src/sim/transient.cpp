#include "sim/transient.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <optional>

#include "circuit/mna.h"
#include "sim/scenario_block.h"
#include "sim/solver_backend.h"
#include "util/error.h"

namespace rlceff::sim {

namespace {

using ckt::ground;
using ckt::MnaStructure;
using ckt::Netlist;
using ckt::NodeId;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

// Newton on the driver decks: an iterate is accepted once no unknown moves
// by more than kNewtonAbsTol + kNewtonRelTol * 1 V, each update is scaled
// down to move no unknown by more than kNewtonDampingV, and a step whose
// loop runs util::iter_defaults::newton iterations raises ConvergenceError.
constexpr double kNewtonAbsTol = 1e-6;    // [V]
constexpr double kNewtonRelTol = 1e-6;
constexpr double kNewtonDampingV = 0.6;   // [V]

// Conductance to ground at every node [S]; the DC point's gmin stepping
// walks down to it.
constexpr double kGmin = 1e-12;

// The measured-edge stop's crossing tracker (see sim::EdgeStop):
// Waveform::first_crossing run incrementally.  Fed each recorded sample of
// the watched nodes, it tracks which of the three edge levels every node has
// crossed so far.  A level counts as crossed at the first sample pair that
// first_crossing would report, so once every level of every node is
// crossed, the recorded prefix already holds each measured crossing.
class EdgeWatch {
public:
  explicit EdgeWatch(const EdgeStop& stop)
      : levels_(wave::rising_edge_levels(0.0, stop.vdd)),
        prev_(stop.watch.size(), 0.0),
        pending_(stop.watch.size(), kAllLevels) {}

  // Feeds one recorded sample: value_of(k) is watched node k's value.
  // Returns true once every watched node has crossed all three levels.  The
  // first sample only primes the pair test.
  template <class ValueOf>
  bool observe(ValueOf value_of) {
    bool done = true;
    for (std::size_t k = 0; k < prev_.size(); ++k) {
      const double b = value_of(k);
      if (primed_) {
        for (std::size_t l = 0; l < levels_.size(); ++l) {
          const std::uint8_t bit = static_cast<std::uint8_t>(1u << l);
          if ((pending_[k] & bit) != 0 && wave::crosses(prev_[k], b, levels_[l])) {
            pending_[k] = static_cast<std::uint8_t>(pending_[k] & ~bit);
          }
        }
      }
      prev_[k] = b;
      done = done && pending_[k] == 0;
    }
    primed_ = true;
    return done;
  }

private:
  static constexpr std::uint8_t kAllLevels = 0b111;

  std::array<double, 3> levels_;
  std::vector<double> prev_;           // last sample per watched node
  std::vector<std::uint8_t> pending_;  // uncrossed levels per watched node
  bool primed_ = false;
};

// Pwl::value_at at non-decreasing times, its breakpoint search replaced by
// a cursor that only moves forward: the same clamps and the same
// interpolation arithmetic, so the same bits.
class PwlCursor {
public:
  explicit PwlCursor(const wave::Pwl& pwl) : pts_(pwl.points()) {
    ensure(!pts_.empty(), "Pwl: empty");
  }

  double value_at(double time) {
    if (time <= pts_.front().first) return pts_.front().second;
    if (time >= pts_.back().first) return pts_.back().second;
    while (pts_[next_].first <= time) ++next_;  // upper_bound's answer
    const std::pair<double, double>& hi = pts_[next_];
    const std::pair<double, double>& lo = pts_[next_ - 1];
    const double w = (time - lo.first) / (hi.first - lo.first);
    return lo.second + w * (hi.second - lo.second);
  }

private:
  std::span<const std::pair<double, double>> pts_;
  std::size_t next_ = 0;
};

SingularMatrixError nonfinite_error() {
  return SingularMatrixError("transient: non-finite solution (singular or NaN-stamped system)");
}

// The one transient stepper behind sim::simulate, simulate_block and
// dc_operating_point.  It advances one lane of a deck from its DC operating
// point, driven by one of three sources:
//   - netlist: the deck's own source waveforms (a stepped run, and the DC
//     point);
//   - basis: the superposition basis of a one-source linear deck, its
//     source held at 1 (the unit DC solution, then the unit step response
//     from the zero state);
//   - held: one value, for a superposed lane's shortened final step.
//
// The system is the reduced one of ckt::MnaStructure.  The solution holds
// the m_ unknowns and, after them, one known row per source-held node,
// which assemble_rhs fills from the source at the step's time; probes, the
// edge watch and the device sweeps read a known row like any other.  A
// folded R-L branch carries its own state (current and inductor voltage)
// and stamps as a companion conductance plus a history current.  A deck
// with no unknowns left still steps: each step only fills its known rows
// and advances the branch state.
//
// Each device's rows are resolved once, at construction (a ground terminal
// reads the solution's zero row, one past its last), and the companion
// coefficients are computed once per step size, so the device sweeps hold
// only the devices' arithmetic.
//
// Linear decks under cached assembly solve a step with one factorization
// per (step size, gmin) and a substitution.  MOSFET decks and
// AssemblyMode::naive replace that factor-and-substitute with their Newton
// loop; everything else is shared.
class Stepper {
public:
  Stepper(const Netlist& netlist, const TransientOptions& options,
          std::span<const NodeId> probes)
      : opt_(options),
        nl0_(netlist),
        structure_(netlist, kept_nodes(netlist, options, probes)),
        m_(structure_.unknown_count()),
        rows_(m_ + structure_.known_count()),
        newton_(!netlist.mosfets().empty() || options.assembly == AssemblyMode::naive),
        kind_(detail::resolve_solver_kind(structure_, options)),
        solver_(m_ > 0 ? detail::make_solver(structure_, kind_, options.budget) : nullptr),
        probes_(probes.begin(), probes.end()) {
    // Resolve every row once so the per-step loops are pure array indexing
    // (node_index() revalidates its arguments on every call).
    std::vector<std::size_t> node_pos(nl0_.node_count(), npos);
    for (NodeId n = 1; n < nl0_.node_count(); ++n) {
      node_pos[n] = structure_.node_index(n);
    }
    auto pos = [&](NodeId n) { return n == ground ? npos : node_pos[n]; };
    auto unknown = [&](std::size_t p) { return p < m_; };
    // Device terminals read ground from the solution's zero row.
    auto row = [&](std::size_t p) { return p == npos ? rows_ : p; };
    // A stamp A[row][col] whose column is a known node: its term moves to
    // the right-hand side.
    auto couple = [&](std::size_t row, std::size_t col, Term::Of of, std::size_t dev,
                      double a) {
      if (unknown(row) && col != npos && !unknown(col)) {
        known_terms_.push_back({row, col, of, dev, a});
      }
    };
    auto couple_pair = [&](Pair p, Term::Of of, std::size_t dev, double a) {
      couple(p.a, p.b, of, dev, a);
      couple(p.b, p.a, of, dev, a);
    };

    for (std::size_t k = 0; k < nl0_.resistors().size(); ++k) {
      if (structure_.resistor_folded(k)) continue;
      const ckt::Resistor& r = nl0_.resistors()[k];
      couple_pair({pos(r.a), pos(r.b)}, Term::Of::fixed, 0, -1.0 / r.resistance);
    }
    // A capacitor with no unknown terminal stamps nothing and drops out.
    for (const ckt::Capacitor& c : nl0_.capacitors()) {
      const Pair p{pos(c.a), pos(c.b)};
      if (!unknown(p.a) && !unknown(p.b)) continue;
      couple_pair(p, Term::Of::capacitor, cap_pos_.size(), 0.0);
      cap_pos_.push_back({row(p.a), row(p.b)});
      cap_c_.push_back(c.capacitance);
    }
    for (const ckt::MnaStructure::FoldedBranch& b : structure_.folded_branches()) {
      const Pair p{pos(b.from), pos(b.to)};
      couple_pair(p, Term::Of::branch, br_pos_.size(), 0.0);
      br_pos_.push_back({row(p.a), row(p.b)});
      br_r_.push_back(nl0_.resistors()[b.resistor].resistance);
      br_l_.push_back(nl0_.inductors()[b.inductor].inductance);
    }
    std::vector<std::size_t> ind_slot(nl0_.inductors().size(), npos);
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const std::size_t j = structure_.inductor_index(k);
      if (j == ckt::MnaStructure::npos) continue;
      const ckt::Inductor& l = nl0_.inductors()[k];
      ind_slot[k] = ind_pos_.size();
      ind_pos_.push_back(j);
      ind_nodes_.push_back({row(pos(l.a)), row(pos(l.b))});
      ind_l_.push_back(l.inductance);
      couple(j, pos(l.a), Term::Of::fixed, 0, 1.0);
      couple(j, pos(l.b), Term::Of::fixed, 0, -1.0);
    }
    for (const ckt::MutualInductor& mi : nl0_.mutual_inductors()) {
      mut_.push_back({ind_slot[mi.la], ind_slot[mi.lb], mi.mutual});
    }
    for (std::size_t k = 0; k < nl0_.vsources().size(); ++k) {
      const std::size_t j = structure_.vsource_index(k);
      if (j == ckt::MnaStructure::npos) continue;
      const ckt::VSource& v = nl0_.vsources()[k];
      vsrc_pos_.push_back(j);
      vsrc_dev_.push_back(k);
      couple(j, pos(v.pos), Term::Of::fixed, 0, 1.0);
      couple(j, pos(v.neg), Term::Of::fixed, 0, -1.0);
    }
    // A MOSFET stamp whose row and column are both unknowns accumulates into
    // the matrix entry resolved here; a known column moves to the RHS.
    for (const ckt::Mosfet& mos : nl0_.mosfets()) {
      const MosPos p{pos(mos.drain), pos(mos.gate), pos(mos.source)};
      mos_pos_.push_back(p);
      for (std::size_t q : {p.drain, p.gate, p.source}) {
        if (unknown(q)) first_mos_col_ = std::min(first_mos_col_, q);
      }
      const auto entry = [&](std::size_t r, std::size_t c) {
        return unknown(r) && unknown(c) ? solver_->entry(r, c) : nullptr;
      };
      mos_entry_.push_back({entry(p.drain, p.drain), entry(p.drain, p.gate),
                            entry(p.drain, p.source), entry(p.source, p.source),
                            entry(p.source, p.gate), entry(p.source, p.drain)});
    }
    gate_.resize(mos_pos_.size());
    cap_geq_.resize(cap_pos_.size());
    for (double c : cap_c_) cap_geq_dt_.push_back(2.0 * c / options.dt);
    br_req_.resize(br_pos_.size());
    br_g_.resize(br_pos_.size());
    ind_req_.resize(ind_pos_.size());
    mut_req_.resize(mut_.size());
    for (NodeId p : probes) probe_pos_.push_back(pos(p));
    if (options.edge_stop.enabled()) {
      for (NodeId n : options.edge_stop.watch) watch_pos_.push_back(pos(n));
    }
  }

  const MnaStructure& structure() const { return structure_; }
  SolverKind kind() const { return kind_; }
  const std::vector<NodeId>& probes() const { return probes_; }
  const std::vector<std::size_t>& probe_pos() const { return probe_pos_; }
  const std::vector<std::size_t>& watch_pos() const { return watch_pos_; }

  // Drives the deck's one source as the superposition basis (see Drive).
  void drive_basis() { drive_ = Drive::basis; }

  // The DC operating point of every source at 0 on a linear deck: the
  // solution and the device state all zero.
  void zero_state() {
    std::fill(xb_.begin(), xb_.end(), 0.0);
    std::fill(hist_.begin(), hist_.end(), 0.0);
  }

  // Solves the DC operating point (sources at t = 0, capacitors open,
  // inductors shorted) into the solution, which it returns, with the device
  // state zeroed.
  std::span<const double> solve_dc() {
    xb_.assign(rows_ + 1, 0.0);
    rhsb_.assign(rows_ + 1, 0.0);
    if (newton_) {
      rhs_lin_.assign(rows_ + 1, 0.0);
      x_last_.assign(m_, 0.0);
    }
    hist_.assign(hist_size(), 0.0);
    try {
      solve(0.0, 0.0, kGmin);
    } catch (const ConvergenceError&) {
      // gmin stepping: solve a heavily damped system first and walk gmin down.
      for (double gmin = 1e-3; gmin >= kGmin; gmin *= 1e-2) solve(0.0, 0.0, gmin);
      solve(0.0, 0.0, kGmin);
    }
    return xb_;
  }

  // Seeds device state from the operating point: capacitor currents and
  // inductor voltages are zero in steady state, and a folded branch's
  // inductor is a short, so its current is its voltage over R.
  void seed_state() {
    const double* x = xb_.data();
    double* sh = cap_hist();
    for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
      sh[k] = cap_geq_dt_[k] * (x[cap_pos_[k].a] - x[cap_pos_[k].b]);
    }
    double* si = br_i();
    for (std::size_t k = 0; k < br_pos_.size(); ++k) {
      si[k] = (x[br_pos_[k].a] - x[br_pos_[k].b]) / br_r_[k];
    }
    double* ii = ind_i();
    for (std::size_t k = 0; k < ind_pos_.size(); ++k) ii[k] = xb_[ind_pos_[k]];
  }

  // A stepped run: from the DC operating point to t_stop or the
  // measured-edge stop.  `budget` is charged one step per accepted step.
  TransientResult run(double t_stop, util::ExecTracker* budget) {
    TransientResult result(probes_, static_cast<std::size_t>(t_stop / opt_.dt) + 2, kind_);
    std::optional<EdgeWatch> watch;
    if (!watch_pos_.empty()) watch.emplace(opt_.edge_stop);
    const auto sample = [&](double t) {
      result.record(t, [&](std::size_t k) { return node(probe_pos_[k]); });
      return watch && watch->observe([&](std::size_t k) { return node(watch_pos_[k]); });
    };
    solve_dc();
    seed_state();
    bool done = sample(0.0);

    const double dt = opt_.dt;
    double t = 0.0;
    std::uint64_t steps = 0;
    while (!done && t < t_stop - 1e-21) {
      // A step within dt of the horizon is the run's last, shortened to end
      // on it.
      const double h = t_stop - t >= dt ? dt : t_stop - t;
      if (budget) budget->charge_transient_steps(1, "transient");
      const double t_next = t + h;
      solve(t_next, h, kGmin);
      // Periodic (cheap, amortized) non-finite guard: a NaN/Inf stamp (or a
      // numerically destroyed factorization) propagates through the whole
      // solution, and the factor-once path has no convergence check of its
      // own.
      if ((++steps & 63) == 0 && !finite()) throw nonfinite_error();
      // A shortened step is the run's last, so only a regular one advances
      // the companion state.
      if (h == dt) advance_state();
      t = t_next;
      done = sample(t);
    }
    if (!finite()) throw nonfinite_error();
    TransientResult::Work work = this->work();
    work.solved_steps = steps;
    result.set_work(work);
    return result;
  }

  // One regular step of the basis, to t_next.
  void step(double t_next) {
    solve(t_next, opt_.dt, kGmin);
    advance_state();
  }

  // Solution row `pos`, 0 for ground.
  double node(std::size_t pos) const { return pos == npos ? 0.0 : xb_[pos]; }

  bool finite() const {
    for (double v : xb_) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  }

  // The full state: the solution rows, then the device histories.
  std::size_t state_size() const { return rows_ + hist_size(); }
  void copy_state(double* out) const {
    std::copy(xb_.begin(), xb_.begin() + static_cast<std::ptrdiff_t>(rows_), out);
    std::copy(hist_.begin(), hist_.end(), out + rows_);
  }

  // The shortened final step (h < dt, ending at t + h) of a superposed lane
  // from its full state `state` at t, with its source at `u` at t + h.  It
  // runs on a tail solver of its own and leaves the basis's state and
  // factorization as they were: the identical stamps and factorization
  // algorithm give the factors an in-place step would.  Returns the step's
  // solution, valid until the next solve.
  std::span<const double> tail_step(std::span<const double> state, double u, double t,
                                    double h) {
    tail_x_.assign(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(rows_));
    tail_x_.push_back(0.0);  // the zero row
    tail_hist_.assign(state.begin() + static_cast<std::ptrdiff_t>(rows_), state.end());
    std::swap(xb_, tail_x_);
    std::swap(hist_, tail_hist_);
    const Drive drive = drive_;
    drive_ = Drive::held;
    held_u_ = u;
    try {
      assemble_rhs(t + h, h);
      if (m_ > 0) {
        if (!tail_) tail_ = detail::make_solver(structure_, kind_, opt_.budget);
        refactor(*tail_, h, kGmin);
        tail_->solve_into(std::span<double>(rhsb_).first(m_));
      }
    } catch (...) {
      drive_ = drive;
      std::swap(xb_, tail_x_);
      std::swap(hist_, tail_hist_);
      throw;
    }
    drive_ = drive;
    std::swap(xb_, tail_x_);
    std::swap(hist_, tail_hist_);
    return rhsb_;
  }

  TransientResult::Work work() const {
    TransientResult::Work w;
    w.factored_columns = factored_columns_;
    w.newton_iterations = newton_iterations_;
    w.gate_evaluations = gate_evaluations_;
    return w;
  }

private:
  enum class Drive { netlist, basis, held };

  struct Pair {
    std::size_t a;
    std::size_t b;
  };

  struct MosPos {
    std::size_t drain;
    std::size_t gate;
    std::size_t source;
  };

  // A MOSFET's matrix entries in stamp order (dd, dg, ds, ss, sg, sd); null
  // where the row or the column is not an unknown.
  using MosEntries = std::array<double*, 6>;

  struct Mutual {
    std::size_t a;  // slots of the two coupled inductors
    std::size_t b;
    double m;
  };

  // A stamp A[row][known] of the reduced system whose column is a known
  // node: the right-hand side takes -a * v_known instead.  `a` is fixed for
  // resistors and incidence rows, and follows the step size for the
  // companion conductances of capacitor or branch `dev`.
  struct Term {
    std::size_t row;
    std::size_t known;
    enum class Of { fixed, capacitor, branch } of;
    std::size_t dev;
    double a;
  };

  // The nodes the reduction must keep: probes, and the watched nodes when
  // the measured-edge stop is on.
  static std::vector<NodeId> kept_nodes(const Netlist& netlist,
                                        const TransientOptions& options,
                                        std::span<const NodeId> probes) {
    std::vector<NodeId> keep(probes.begin(), probes.end());
    for (NodeId n : keep) ensure(n < netlist.node_count(), "simulate: probe out of range");
    if (options.edge_stop.enabled()) {
      const std::vector<NodeId>& watch = options.edge_stop.watch;
      for (NodeId n : watch) {
        ensure(n < netlist.node_count(), "simulate: watched node out of range");
      }
      keep.insert(keep.end(), watch.begin(), watch.end());
    }
    return keep;
  }

  // The device histories, one contiguous block: capacitor histories, folded
  // branch currents and inductor voltages, branch-row inductor currents and
  // voltages.
  std::size_t hist_size() const {
    return cap_pos_.size() + 2 * br_pos_.size() + 2 * ind_pos_.size();
  }
  double* cap_hist() { return hist_.data(); }
  double* br_i() { return cap_hist() + cap_pos_.size(); }
  double* br_v() { return br_i() + br_pos_.size(); }
  double* ind_i() { return br_v() + br_pos_.size(); }
  double* ind_v() { return ind_i() + ind_pos_.size(); }

  // The value of voltage source k at time t.
  double source_value(std::size_t k, double t) const {
    switch (drive_) {
      case Drive::basis:
        return 1.0;
      case Drive::held:
        return held_u_;
      default:
        return nl0_.vsources()[k].voltage.value_at(t);
    }
  }

  bool holds(double h, double gmin) const { return h == held_h_ && gmin == held_gmin_; }

  // The companion coefficients of step size h (h <= 0: DC), by the
  // expressions assemble_static_stamps uses, so they are the matrix's bits.
  void set_companions(double h) {
    if (h == coef_h_) return;
    coef_h_ = h;
    const bool dc = h <= 0.0;
    for (std::size_t k = 0; k < cap_geq_.size(); ++k) {
      cap_geq_[k] = dc ? 0.0 : 2.0 * cap_c_[k] / h;
    }
    for (std::size_t k = 0; k < br_g_.size(); ++k) {
      br_req_[k] = dc ? 0.0 : 2.0 * br_l_[k] / h;
      br_g_[k] = 1.0 / (br_r_[k] + br_req_[k]);
    }
    for (std::size_t k = 0; k < ind_req_.size(); ++k) {
      ind_req_[k] = dc ? 0.0 : 2.0 * ind_l_[k] / h;
    }
    for (std::size_t k = 0; k < mut_req_.size(); ++k) {
      mut_req_[k] = dc ? 0.0 : 2.0 * mut_[k].m / h;
    }
    for (Term& term : known_terms_) {
      if (term.of == Term::Of::capacitor) term.a = -cap_geq_[term.dev];
      if (term.of == Term::Of::branch) term.a = -br_g_[term.dev];
    }
  }

  // Assembles and factors the static matrix of (h, gmin).  Naive assembly
  // stamps as its Newton loop does, which only the fault hooks tell apart.
  void refactor(detail::LinearSolver& solver, double h, double gmin) {
    solver.clear();
    detail::assemble_static_stamps(solver, nl0_, structure_, h, gmin, opt_,
                                   opt_.assembly == AssemblyMode::cached);
    factored_columns_ = solver.factor();
  }

  // Solves one step's system at time t with step h (h <= 0: DC) and leaves
  // the solution in xb_.  The factor-once path refactors only when (h, gmin)
  // changes: once for DC, once for the regular step, and once more for a
  // shortened final step.
  void solve(double t, double h, double gmin) {
    if (m_ == 0) {
      assemble_rhs(t, h);
      std::swap(xb_, rhsb_);
      return;
    }
    if (newton_) {
      newton(t, h, gmin);
      return;
    }
    if (!holds(h, gmin)) {
      refactor(*solver_, h, gmin);
      held_h_ = h;
      held_gmin_ = gmin;
    }
    assemble_rhs(t, h);
    solver_->solve_into(std::span<double>(rhsb_).first(m_));
    std::swap(xb_, rhsb_);
  }

  // Newton-Raphson on the step system, xb_ holding the iterate.  The linear
  // right-hand side is the same in every iteration, so it is assembled once,
  // before them, from the last accepted solution; the iterate then takes the
  // known nodes' values at t, and a time step after the run's first starts
  // its unknowns from the predictor (predict).  Cached assembly restores the
  // linear stamps from the static image each iteration and restamps only the
  // MOSFETs, so only columns from first_mos_col_ on change and the banded
  // backend refactors just those; naive assembly rebuilds and refactors the
  // full matrix.
  void newton(double t, double h, double gmin) {
    const bool cached = opt_.assembly == AssemblyMode::cached;
    if (cached && !holds(h, gmin)) {
      solver_->clear();
      detail::assemble_static_stamps(*solver_, nl0_, structure_, h, gmin, opt_,
                                     /*cached_path=*/true);
      solver_->save_static(first_mos_col_);
      held_h_ = h;
      held_gmin_ = gmin;
    }
    assemble_rhs(t, h);
    std::copy(rhsb_.begin(), rhsb_.end(), rhs_lin_.begin());
    std::copy(rhsb_.begin() + static_cast<std::ptrdiff_t>(m_), rhsb_.end(),
              xb_.begin() + static_cast<std::ptrdiff_t>(m_));
    if (h > 0.0) predict(h);
    for (int iter = 0; iter < util::iter_defaults::newton; ++iter) {
      if (opt_.budget) opt_.budget->check("transient newton");
      ++newton_iterations_;
      if (cached) {
        solver_->load_static();
      } else {
        solver_->clear();
        detail::assemble_static_stamps(*solver_, nl0_, structure_, h, gmin, opt_,
                                       /*cached_path=*/false);
      }
      std::copy(rhs_lin_.begin(), rhs_lin_.end(), rhsb_.begin());
      stamp_mosfets(cached);
      factored_columns_ = solver_->factor();
      solver_->solve_into(std::span<double>(rhsb_).first(m_));
      if (mos_pos_.empty()) {
        std::swap(xb_, rhsb_);
        return;
      }

      double max_dv = 0.0;
      for (std::size_t k = 0; k < m_; ++k) {
        max_dv = std::max(max_dv, std::abs(rhsb_[k] - xb_[k]));
      }
      if (max_dv < kNewtonAbsTol + kNewtonRelTol * 1.0) {
        std::swap(xb_, rhsb_);
        return;
      }

      // Damped update keeps the MOSFET linearization inside its trust region.
      const double scale = std::min(1.0, kNewtonDampingV / max_dv);
      for (std::size_t k = 0; k < m_; ++k) xb_[k] += scale * (rhsb_[k] - xb_[k]);
    }
    throw ConvergenceError("transient: Newton failed to converge");
  }

  // First-order predictor: the unknowns of the step from t_n to t_n + h
  // start at x_n + (h / h_prev) * (x_n - x_{n-1}), extrapolated from the
  // last two accepted solutions, and x_n becomes the next step's x_{n-1}.
  // The run's first time step has no x_{n-1} and starts at x_n.
  void predict(double h) {
    if (h_last_ > 0.0) {
      const double r = h / h_last_;
      for (std::size_t k = 0; k < m_; ++k) {
        const double x = xb_[k];
        xb_[k] = x + r * (x - x_last_[k]);
        x_last_[k] = x;
      }
    } else {
      std::copy(xb_.begin(), xb_.begin() + static_cast<std::ptrdiff_t>(m_), x_last_.begin());
    }
    h_last_ = h;
  }

  // MOSFET linearization around the current Newton iterate: the only stamps
  // that change between iterations (matrix and RHS).  A known terminal's
  // column moves to the right-hand side; its row is not in the system.
  // Each device keeps the gate terms of its last on evaluation and reuses
  // them while its forward overdrive repeats bit for bit (`reuse`, the
  // cached path); naive assembly evaluates every device from scratch.
  void stamp_mosfets(bool reuse) {
    for (std::size_t k = 0; k < mos_pos_.size(); ++k) {
      const ckt::Mosfet& mos = nl0_.mosfets()[k];
      const auto [pd, pg, ps] = mos_pos_[k];
      const MosEntries& entry = mos_entry_[k];
      const auto stamp = [&](double* a_rc, std::size_t r, std::size_t c, double a) {
        if (a_rc != nullptr) {
          *a_rc += a;
        } else if (r < m_ && c != npos) {
          rhsb_[r] -= a * xb_[c];
        }
      };
      const double vd = node(pd);
      const double vg = node(pg);
      const double vs = node(ps);
      const ckt::MosfetEval e =
          ckt::eval_mosfet(mos.params, mos.is_pmos, vg - vs, vd - vs,
                           [&](double vgt) -> const ckt::MosfetGateTerms& {
                             ckt::MosfetGateTerms& gate = gate_[k];
                             if (!reuse || vgt != gate.vgt) {
                               gate = ckt::gate_terms(mos.params, mos.width, vgt);
                               ++gate_evaluations_;
                             }
                             return gate;
                           });
      // Linearized channel current (drain -> source):
      //   i = ieq + gm * vgs + gds * vds.
      const double ieq = e.id - e.gm * (vg - vs) - e.gds * (vd - vs);
      stamp(entry[0], pd, pd, e.gds);
      stamp(entry[1], pd, pg, e.gm);
      stamp(entry[2], pd, ps, -(e.gm + e.gds));
      stamp(entry[3], ps, ps, e.gm + e.gds);
      stamp(entry[4], ps, pg, -e.gm);
      stamp(entry[5], ps, pd, -e.gds);
      // Companion current flows drain -> source.
      if (pd < m_) rhsb_[pd] -= ieq;
      if (ps < m_) rhsb_[ps] += ieq;
    }
  }

  // Right-hand side of the step to time t of size h: known rows, source
  // values, companion currents and known terms.  Changes every step, never
  // touches the matrix.
  void assemble_rhs(double t, double h) {
    std::fill(rhsb_.begin(), rhsb_.end(), 0.0);
    double* __restrict rhs = rhsb_.data();
    for (std::size_t q = 0; q < rows_ - m_; ++q) {
      rhs[m_ + q] = source_value(structure_.known_source(q), t);
    }
    for (std::size_t k = 0; k < vsrc_pos_.size(); ++k) {
      rhs[vsrc_pos_[k]] = source_value(vsrc_dev_[k], t);
    }

    set_companions(h);
    // DC: capacitors are open, and the branch, inductor and mutual history
    // terms are zero.
    if (h > 0.0) {
      // Norton companion: device current = geq * v - ieq, flowing b -> a.
      // The state holds ieq = geq * v + i at the regular step dt; a step of
      // another size derives its own from it and the last accepted solution,
      // geq' * v + i = ieq + (geq' - geq) * v.
      const bool regular = h == opt_.dt;
      const double* __restrict x = xb_.data();
      const double* __restrict sh = cap_hist();
      const Pair* __restrict cp = cap_pos_.data();
      for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
        const double ieq =
            regular ? sh[k]
                    : sh[k] + (cap_geq_[k] - cap_geq_dt_[k]) * (x[cp[k].a] - x[cp[k].b]);
        stamp_history(rhs, cp[k].a, cp[k].b, ieq);
      }

      // Folded branch: current G * (v + e) from `from` to `to`, with the
      // history voltage e = v_L + req * i.
      const double* __restrict si = br_i();
      const double* __restrict sv = br_v();
      const double* __restrict g = br_g_.data();
      const double* __restrict req = br_req_.data();
      const Pair* __restrict bp = br_pos_.data();
      for (std::size_t k = 0; k < br_pos_.size(); ++k) {
        stamp_history(rhs, bp[k].b, bp[k].a, g[k] * (sv[k] + req[k] * si[k]));
      }

      const double* ii = ind_i();
      const double* iv = ind_v();
      for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
        rhs[ind_pos_[k]] = -iv[k] - ind_req_[k] * ii[k];
      }

      // History term of the mutual coupling, mirroring the matrix stamp.
      for (std::size_t k = 0; k < mut_.size(); ++k) {
        const double mreq = mut_req_[k];
        rhs[ind_pos_[mut_[k].a]] -= mreq * ii[mut_[k].b];
        rhs[ind_pos_[mut_[k].b]] -= mreq * ii[mut_[k].a];
      }
    }

    for (const Term& term : known_terms_) rhs[term.row] -= term.a * rhs[term.known];
  }

  // Adds a history current `ieq` that flows into row `in` and out of row
  // `out`, each skipped unless it is an unknown.
  void stamp_history(double* rhs, std::size_t in, std::size_t out, double ieq) const {
    if (out < m_) rhs[out] -= ieq;
    if (in < m_) rhs[in] += ieq;
  }

  // Advances the companion-model state to the solution a regular step (of
  // size dt) just accepted.  A capacitor's history becomes
  // geq * v' + i' = 2 * geq * v' - ieq.
  void advance_state() {
    set_companions(opt_.dt);
    const double* __restrict x = xb_.data();
    double* __restrict sh = cap_hist();
    const Pair* __restrict cp = cap_pos_.data();
    const double* __restrict geq = cap_geq_dt_.data();
    for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
      sh[k] = 2.0 * geq[k] * (x[cp[k].a] - x[cp[k].b]) - sh[k];
    }
    double* __restrict si = br_i();
    double* __restrict sv = br_v();
    const Pair* __restrict bp = br_pos_.data();
    const double* __restrict g = br_g_.data();
    const double* __restrict req = br_req_.data();
    const double* __restrict r = br_r_.data();
    for (std::size_t k = 0; k < br_pos_.size(); ++k) {
      const double v = x[bp[k].a] - x[bp[k].b];
      const double i_new = g[k] * (v + (sv[k] + req[k] * si[k]));
      si[k] = i_new;
      sv[k] = v - r[k] * i_new;
    }
    double* ii = ind_i();
    double* iv = ind_v();
    for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
      ii[k] = x[ind_pos_[k]];
      iv[k] = x[ind_nodes_[k].a] - x[ind_nodes_[k].b];
    }
  }

  const TransientOptions& opt_;
  const Netlist& nl0_;
  MnaStructure structure_;
  std::size_t m_;     // unknowns
  std::size_t rows_;  // solution rows: the unknowns, then the known rows
  bool newton_;
  SolverKind kind_;  // the backend every solve of this run factors with
  std::unique_ptr<detail::LinearSolver> solver_;  // null without unknowns
  std::unique_ptr<detail::LinearSolver> tail_;    // a superposed lane's last step
  std::vector<NodeId> probes_;
  Drive drive_ = Drive::netlist;
  double held_u_ = 0.0;

  // Rows resolved once at construction (ground: rows_ for the linear
  // devices' terminals, npos elsewhere), and the device values the companion
  // coefficients are computed from.
  std::vector<Pair> cap_pos_;  // capacitors with an unknown terminal
  std::vector<double> cap_c_;
  std::vector<Pair> br_pos_;   // folded branches: {from, to}
  std::vector<double> br_r_;
  std::vector<double> br_l_;
  std::vector<std::size_t> ind_pos_;  // inductors that keep a branch row
  std::vector<Pair> ind_nodes_;
  std::vector<double> ind_l_;
  std::vector<Mutual> mut_;
  std::vector<std::size_t> vsrc_pos_;  // sources that keep a branch row
  std::vector<std::size_t> vsrc_dev_;
  std::vector<Term> known_terms_;
  std::vector<MosPos> mos_pos_;
  std::size_t first_mos_col_ = npos;  // smallest unknown MOSFET terminal row
  std::vector<std::size_t> probe_pos_;
  std::vector<std::size_t> watch_pos_;  // measured-edge stop nodes

  // Preallocated: the time-step loop never allocates.
  std::vector<double> xb_;       // solution (the Newton iterate on that path),
                                 // then the zero row
  std::vector<double> rhsb_;     // right-hand side, solved in place
  std::vector<double> rhs_lin_;  // a Newton step's linear right-hand side
  std::vector<double> hist_;     // device histories (see cap_hist)
  std::vector<double> tail_x_;   // tail_step's swap space
  std::vector<double> tail_hist_;

  // Companion coefficients per device at step size coef_h_.
  std::vector<double> cap_geq_;     // 2C/h
  std::vector<double> cap_geq_dt_;  // 2C/dt, the history's coefficient
  std::vector<double> br_req_;   // 2L/h
  std::vector<double> br_g_;     // 1/(R + 2L/h)
  std::vector<double> ind_req_;  // 2L/h
  std::vector<double> mut_req_;  // 2M/h
  double coef_h_ = std::numeric_limits<double>::quiet_NaN();

  // (h, gmin) of the matrix the solver holds: the factored matrix on the
  // factor-once path, the saved static image on the cached Newton path.
  double held_h_ = std::numeric_limits<double>::quiet_NaN();
  double held_gmin_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t factored_columns_ = 0;  // columns of the last factorization

  // The Newton path's per-device matrix entries and gate terms, its
  // predictor state (the last accepted unknowns and the step that reached
  // them) and its work counts.
  std::vector<MosEntries> mos_entry_;
  std::vector<ckt::MosfetGateTerms> gate_;
  std::vector<double> x_last_;
  double h_last_ = 0.0;
  std::uint64_t newton_iterations_ = 0;
  std::uint64_t gate_evaluations_ = 0;
};

// True for the decks sim::simulate and simulate_block solve by
// superposition: linear (no MOSFET) and driven by exactly one source.
bool superposable(const Netlist& netlist) {
  return netlist.mosfets().empty() && netlist.vsources().size() == 1;
}

// Solves the lanes of one superposable deck, scenarios that differ only in
// their source waveform and horizon, from one basis.
//
// The basis is the stepper with the source held at 1: its DC point is the
// unit DC solution d, and its steps, started from the zero state, give the
// unit step response r_q.  The lanes read g_q = d - r_q (g_0 = d), the
// response to the unit step down, which decays to 0, so its prefix sums
// G_q = g_1 + ... + g_q stay bounded.  Stepped down from d itself, every row
// would carry d's rounding through each step and drift by about 1e-13 of d
// before the edge reaches it; r, like a lane's own stepped run, stays 0
// there.  A deck is linear and time
// invariant in its source, so a lane whose source reads u_k at the grid
// times t_k, with increments du_j = u_j - u_(j-1), has
//   y_n = d * u_n - sum_(j=1..n) du_j * g_(n-j+1).
// A PWL source has slope s_0 just after t = 0 and changes slope by c_i at
// each later breakpoint tau_i, which the grid first reaches at step m_i
// (t_(m_i) >= tau_i), delta_i = t_(m_i) - tau_i past it.  Its increments
// are du_j = slope * dt, plus c_i * delta_i at step m_i, so
//   y_n = d * u_n - s_0 * dt * G_n
//         - sum_(i: m_i <= n) c_i * (delta_i * g_(n-m_i+1) + dt * G_(n-m_i)),
// with u_n the lane's own value_at(t_n): a fixed-order sum, in breakpoint
// order, over the basis prefix and the lane's own source, whatever the
// horizon, group or lane count.  It holds for every row of the solution
// and every device history alike.  The basis records g and G at the rows
// the lanes read (probes and watched nodes; a source-held node reads u_n
// itself), and each lane records, watches, charges its budget and guards
// its samples as a stepped run does.
//
// A lane whose horizon ends mid-step takes its shortened final step from
// its full state at its last grid time n, built by the same sum from g over
// the full state at the steps n - m_i + 1 and its prefix sums at n - m_i
// and n: snapshots taken as the basis passes those steps, known in advance
// from the grid.
class Superposition {
public:
  Superposition(const Netlist& netlist, const TransientOptions& options,
                std::span<const NodeId> probes)
      : opt_(options), basis_(netlist, options, probes) {
    const std::size_t m = basis_.structure().unknown_count();
    // value slots: 0 reads ground, 1 the lane's source, 2 + s basis row s.
    const auto slot = [&](std::size_t pos) -> std::size_t {
      if (pos == npos) return 0;
      if (pos >= m) return 1;
      const auto it = std::find(rows_.begin(), rows_.end(), pos);
      if (it != rows_.end()) return 2 + static_cast<std::size_t>(it - rows_.begin());
      rows_.push_back(pos);
      return 1 + rows_.size();
    };
    for (std::size_t p : basis_.probe_pos()) probe_slot_.push_back(slot(p));
    for (std::size_t p : basis_.watch_pos()) watch_slot_.push_back(slot(p));
    vals_.assign(2 + rows_.size(), 0.0);
  }

  void add_lane(std::size_t slot, const Netlist* netlist, double t_stop,
                util::ExecTracker* budget) {
    lanes_.push_back(Lane{slot, netlist->vsources()[0].voltage, t_stop, budget,
                          TransientResult(basis_.probes(),
                                          static_cast<std::size_t>(t_stop / opt_.dt) + 2,
                                          basis_.kind())});
    if (!watch_slot_.empty()) lanes_.back().watch.emplace(opt_.edge_stop);
  }

  // Runs every lane to its t_stop or its measured-edge stop, leaving each
  // lane's result or error in out[slot].  Failures of the shared machinery
  // (a singular matrix) throw instead.
  void run(std::span<BlockOutcome> out) {
    if (lanes_.empty()) return;
    plan();
    const std::size_t r = rows_.size();

    basis_.drive_basis();
    basis_.solve_dc();
    basis_.seed_state();
    for (std::size_t s = 0; s < r; ++s) g_[s] = basis_.node(rows_[s]);
    if (track_state_) {
      basis_.copy_state(dc_state_.data());
      g_state_ = dc_state_;
      take_snapshot();
    }
    basis_.zero_state();
    for (Lane& lane : lanes_) {
      sample(lane, 0);
      if (record(lane, 0.0)) finish(lane);
    }

    double t = 0.0;
    std::size_t n = 0;
    std::uint64_t steps = 0;
    for (;;) {
      // Each lane ends, takes its shortened final step, or is charged for
      // the next regular one.
      bool stepping = false;
      for (Lane& lane : lanes_) {
        if (lane.state != Lane::State::active) continue;
        if (n == lane.n_final) {
          if (lane.shortened) tail_step(lane, t, n);
          if (lane.state == Lane::State::active) finish(lane);
          continue;
        }
        if (lane.budget) {
          try {
            lane.budget->charge_transient_steps(1, "transient");
          } catch (...) {
            fail(lane, std::current_exception());
            continue;
          }
        }
        stepping = true;
      }
      if (!stepping) break;

      const double t_next = grid_[n + 1];
      basis_.step(t_next);
      ++n;
      t = t_next;
      double* g = g_.data() + n * r;
      double* sum = sums_.data() + n * r;
      const double* sum_prev = sum - r;
      for (std::size_t s = 0; s < r; ++s) {
        g[s] = g_[s] - basis_.node(rows_[s]);
        sum[s] = sum_prev[s] + g[s];
      }
      if (track_state_) {
        basis_.copy_state(g_state_.data());
        for (std::size_t j = 0; j < g_state_.size(); ++j) {
          g_state_[j] = dc_state_[j] - g_state_[j];
          state_sum_[j] += g_state_[j];
        }
        if (next_snap_ < snap_steps_.size() && snap_steps_[next_snap_] == n) take_snapshot();
      }
      // Periodic (cheap, amortized) non-finite guard, as a stepped run's.
      const bool guard = (++steps & 63) == 0;
      const bool basis_finite = !guard || basis_.finite();
      for (Lane& lane : lanes_) {
        if (lane.state != Lane::State::active) continue;
        sample(lane, n);
        ++lane.superposed;
        if (guard && !(basis_finite && lane.finite)) {
          fail(lane, std::make_exception_ptr(nonfinite_error()));
          continue;
        }
        if (record(lane, t)) finish(lane);
      }
    }

    TransientResult::Work work = basis_.work();
    work.basis_steps = n;
    for (Lane& lane : lanes_) {
      if (lane.state == Lane::State::failed) {
        out[lane.slot].error = lane.error;
        continue;
      }
      work.solved_steps = lane.tail_taken ? 1 : 0;
      work.superposed_samples = lane.superposed;
      lane.result.set_work(work);
      out[lane.slot].result = std::move(lane.result);
    }
  }

private:
  // A slope change of a lane's source after t = 0: c_i * delta_i and
  // c_i * dt, and the step m_i that reaches it.
  struct Kink {
    std::size_t m;
    double a;
    double b;
  };

  struct Lane {
    std::size_t slot;
    const wave::Pwl& source;
    double t_stop;
    util::ExecTracker* budget;
    TransientResult result;
    std::optional<EdgeWatch> watch{};
    PwlCursor cursor{source};
    std::vector<Kink> kinks{};
    std::size_t passed = 0;   // kinks the grid has reached
    double s0_dt = 0.0;       // s_0 * dt
    std::size_t n_final = 0;  // the grid step it ends or shortens its step at
    bool shortened = false;   // its horizon ends mid-step
    bool tail_taken = false;  // it solved that step
    double u = 0.0;           // the source at its last grid sample
    bool finite = true;       // every sample so far finite
    std::uint64_t superposed = 0;
    enum class State { active, done, failed } state = State::active;
    std::exception_ptr error{};
  };

  // The time grid the stepper walks (t_(k+1) = t_k + dt, the stepped run's
  // accumulation), each lane's last grid step and kinks, and the basis
  // snapshots the lanes' shortened steps read.
  void plan() {
    const double dt = opt_.dt;
    double t_max = 0.0;
    for (const Lane& lane : lanes_) t_max = std::max(t_max, lane.t_stop);
    const auto ends = [&](double t, double t_stop) {
      return t >= t_stop - 1e-21 || t_stop - t < dt;
    };
    grid_.reserve(static_cast<std::size_t>(t_max / dt) + 3);
    grid_.push_back(0.0);
    for (double t = 0.0; !ends(t, t_max);) {
      t = t + dt;
      grid_.push_back(t);
    }
    const std::size_t r = rows_.size();
    g_.assign(grid_.size() * r, 0.0);
    sums_.assign(grid_.size() * r, 0.0);

    for (Lane& lane : lanes_) {
      lane.n_final = static_cast<std::size_t>(
          std::partition_point(grid_.begin(), grid_.end(),
                               [&](double t) { return !ends(t, lane.t_stop); }) -
          grid_.begin());
      lane.shortened = grid_[lane.n_final] < lane.t_stop - 1e-21;

      const std::vector<std::pair<double, double>>& pts = lane.source.points();
      const auto slope = [&](std::size_t i) {  // of the segment ending at point i
        return i == 0 || i == pts.size()
                   ? 0.0
                   : (pts[i].second - pts[i - 1].second) / (pts[i].first - pts[i - 1].first);
      };
      std::size_t first = 0;  // the first breakpoint after t = 0
      while (first < pts.size() && pts[first].first <= 0.0) ++first;
      lane.s0_dt = slope(first) * dt;
      for (std::size_t i = first; i < pts.size(); ++i) {
        const double tau = pts[i].first;
        const auto at = std::lower_bound(grid_.begin() + 1, grid_.end(), tau);
        const auto m = static_cast<std::size_t>(at - grid_.begin());
        if (m > lane.n_final) break;
        const double c = slope(i + 1) - slope(i);
        lane.kinks.push_back({m, c * (grid_[m] - tau), c * dt});
        if (lane.shortened) {
          snap_steps_.push_back(lane.n_final - m + 1);
          snap_steps_.push_back(lane.n_final - m);
        }
      }
      track_state_ = track_state_ || lane.shortened;
    }
    if (track_state_) {
      std::sort(snap_steps_.begin(), snap_steps_.end());
      snap_steps_.erase(std::unique(snap_steps_.begin(), snap_steps_.end()), snap_steps_.end());
      if (snap_steps_.empty() || snap_steps_.front() != 0) snap_steps_.insert(snap_steps_.begin(), 0);
      const std::size_t size = basis_.state_size();
      // Reserved, not filled: a lane that stops on its edge first never
      // reads its snapshots, and the basis often stops before them.
      snaps_.reserve(snap_steps_.size() * 2 * size);
      dc_state_.assign(size, 0.0);
      g_state_.assign(size, 0.0);
      state_sum_.assign(size, 0.0);
      lane_state_.assign(size, 0.0);
    }
  }

  // Keeps g over the full state at the current step, and its prefix sum.
  void take_snapshot() {
    snaps_.insert(snaps_.end(), g_state_.begin(), g_state_.end());
    snaps_.insert(snaps_.end(), state_sum_.begin(), state_sum_.end());
    ++next_snap_;
  }

  const double* snapshot(std::size_t q) const {
    const auto it = std::lower_bound(snap_steps_.begin(), snap_steps_.end(), q);
    return snaps_.data() +
           static_cast<std::size_t>(it - snap_steps_.begin()) * 2 * basis_.state_size();
  }

  // The lane's superposed values at grid step n into vals_, and the source's
  // value at t_n.
  void sample(Lane& lane, std::size_t n) {
    const std::size_t r = rows_.size();
    const double u = lane.cursor.value_at(grid_[n]);
    lane.u = u;
    while (lane.passed < lane.kinks.size() && lane.kinks[lane.passed].m <= n) ++lane.passed;
    vals_[1] = u;
    double* v = vals_.data() + 2;
    const double* d = g_.data();
    for (std::size_t s = 0; s < r; ++s) v[s] = d[s] * u;
    if (lane.s0_dt != 0.0) {
      const double* sum = sums_.data() + n * r;
      for (std::size_t s = 0; s < r; ++s) v[s] -= lane.s0_dt * sum[s];
    }
    for (std::size_t i = 0; i < lane.passed; ++i) {
      const Kink& k = lane.kinks[i];
      const double* g = g_.data() + (n - k.m + 1) * r;
      const double* sum = sums_.data() + (n - k.m) * r;
      for (std::size_t s = 0; s < r; ++s) v[s] -= k.a * g[s] + k.b * sum[s];
    }
    bool finite = std::isfinite(u);
    for (std::size_t s = 0; s < r; ++s) finite = finite && std::isfinite(v[s]);
    lane.finite = lane.finite && finite;
  }

  // Records vals_ at time t and feeds the edge watch; true once the lane's
  // watched edges are complete.
  bool record(Lane& lane, double t) {
    lane.result.record(t, [&](std::size_t k) { return vals_[probe_slot_[k]]; });
    return lane.watch &&
           lane.watch->observe([&](std::size_t k) { return vals_[watch_slot_[k]]; });
  }

  // The lane's shortened final step, from its superposed full state at grid
  // step n (time t).
  void tail_step(Lane& lane, double t, std::size_t n) {
    try {
      if (lane.budget) lane.budget->charge_transient_steps(1, "transient");
      const std::size_t size = basis_.state_size();
      const double* dc = snapshot(0);
      for (std::size_t j = 0; j < size; ++j) lane_state_[j] = dc[j] * lane.u;
      if (lane.s0_dt != 0.0) {
        for (std::size_t j = 0; j < size; ++j) lane_state_[j] -= lane.s0_dt * state_sum_[j];
      }
      for (std::size_t i = 0; i < lane.passed; ++i) {
        const Kink& k = lane.kinks[i];
        const double* g = snapshot(n - k.m + 1);
        const double* sum = snapshot(n - k.m) + size;
        for (std::size_t j = 0; j < size; ++j) lane_state_[j] -= k.a * g[j] + k.b * sum[j];
      }
      const double h = lane.t_stop - t;
      const double t_next = t + h;
      const std::span<const double> x =
          basis_.tail_step(lane_state_, lane.cursor.value_at(t_next), t, h);
      lane.tail_taken = true;
      bool finite = true;
      for (double v : x) finite = finite && std::isfinite(v);
      const auto value = [&](std::size_t pos) { return pos == npos ? 0.0 : x[pos]; };
      lane.result.record(t_next,
                         [&](std::size_t k) { return value(basis_.probe_pos()[k]); });
      if (!finite) fail(lane, std::make_exception_ptr(nonfinite_error()));
    } catch (...) {
      fail(lane, std::current_exception());
    }
  }

  void finish(Lane& lane) {
    if (!(lane.finite && basis_.finite())) {
      fail(lane, std::make_exception_ptr(nonfinite_error()));
      return;
    }
    lane.state = Lane::State::done;
  }

  void fail(Lane& lane, std::exception_ptr e) {
    lane.state = Lane::State::failed;
    lane.error = std::move(e);
  }

  const TransientOptions& opt_;
  Stepper basis_;
  std::vector<std::size_t> rows_;        // basis rows the lanes read
  std::vector<std::size_t> probe_slot_;  // vals_ slot of each probe
  std::vector<std::size_t> watch_slot_;  // vals_ slot of each watched node
  std::vector<double> vals_;             // a lane's values at one sample
  std::vector<Lane> lanes_;

  std::vector<double> grid_;  // t_k
  std::vector<double> g_;     // g_q at rows_, q-major (g_0: the unit DC solution)
  std::vector<double> sums_;  // G_q at rows_ (G_0 = 0)

  // Full-state tracking for shortened final steps.
  bool track_state_ = false;
  std::vector<double> dc_state_;    // the unit DC solution's full state
  std::vector<double> g_state_;     // g over the full state at the current step
  std::vector<double> state_sum_;   // its prefix sum G
  std::vector<std::size_t> snap_steps_;
  std::size_t next_snap_ = 0;
  std::vector<double> snaps_;       // per snapshot step: full state, then its G
  std::vector<double> lane_state_;  // a lane's full state before its tail step
};

}  // namespace

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::automatic:
      return "auto";
    case SolverKind::dense:
      return "dense";
    case SolverKind::banded:
      return "banded";
    case SolverKind::sparse:
      return "sparse";
  }
  return "unknown";
}

SolverKind solver_kind_from_string(std::string_view name) {
  if (name == "auto") return SolverKind::automatic;
  if (name == "dense") return SolverKind::dense;
  if (name == "banded") return SolverKind::banded;
  if (name == "sparse") return SolverKind::sparse;
  throw Error("unknown solver kind '" + std::string(name) +
              "' (expected auto, dense, banded, or sparse)");
}

SolverKind selected_solver(const ckt::Netlist& netlist,
                           const TransientOptions& options) {
  const std::span<const NodeId> watch =
      options.edge_stop.enabled() ? std::span<const NodeId>(options.edge_stop.watch)
                                  : std::span<const NodeId>();
  return detail::resolve_solver_kind(MnaStructure(netlist, watch), options);
}

TransientResult::TransientResult(std::vector<ckt::NodeId> probes, std::size_t reserve_steps,
                                 SolverKind solver)
    : probes_(std::move(probes)), waves_(probes_.size()), solver_(solver) {
  for (wave::Waveform& w : waves_) w.reserve(reserve_steps);
}

const wave::Waveform& TransientResult::at(ckt::NodeId node) const {
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    if (probes_[k] == node) return waves_[k];
  }
  throw Error("TransientResult: node was not probed");
}

OperatingPoint dc_operating_point(const ckt::Netlist& netlist,
                                  const TransientOptions& options) {
  Stepper stepper(netlist, options, {});
  const std::span<const double> x = stepper.solve_dc();
  const MnaStructure& structure = stepper.structure();

  OperatingPoint op;
  op.node_voltage.resize(netlist.node_count(), 0.0);
  for (ckt::NodeId n = 1; n < netlist.node_count(); ++n) {
    const std::size_t row = structure.node_index(n);
    if (row != MnaStructure::npos) op.node_voltage[n] = x[row];
  }
  // A folded node sits across its branch's inductor, a short in DC, from the
  // branch's `to` end (whose row the loop above has read).
  for (const MnaStructure::FoldedBranch& b : structure.folded_branches()) {
    const ckt::Resistor& r = netlist.resistors()[b.resistor];
    op.node_voltage[r.a == b.from ? r.b : r.a] = op.node_voltage[b.to];
  }
  return op;
}

TransientResult simulate(const ckt::Netlist& netlist, const TransientOptions& options,
                         std::span<const ckt::NodeId> probes) {
  ensure(options.t_stop > 0.0 && options.dt > 0.0, "simulate: bad time range");
  if (!superposable(netlist)) {
    return Stepper(netlist, options, probes).run(options.t_stop, options.budget);
  }
  Superposition superposition(netlist, options, probes);
  superposition.add_lane(0, &netlist, options.t_stop, options.budget);
  BlockOutcome out;
  superposition.run(std::span<BlockOutcome>(&out, 1));
  if (!out.result) std::rethrow_exception(out.error);
  return std::move(*out.result);
}

std::vector<BlockOutcome> simulate_block(std::span<const BlockScenario> scenarios,
                                         const TransientOptions& options,
                                         std::span<const NodeId> probes) {
  std::vector<BlockOutcome> out(scenarios.size());
  if (scenarios.empty()) return out;
  ensure(options.dt > 0.0, "simulate_block: bad time step");
  ensure(options.budget == nullptr,
         "simulate_block: shared budget not supported (use per-lane budgets)");
  ensure(options.assembly == AssemblyMode::cached,
         "simulate_block: cached assembly only");
  const Netlist& nl0 = *scenarios[0].netlist;
  ensure(nl0.mosfets().empty(), "simulate_block: linear netlists only");
  for (const BlockScenario& s : scenarios) {
    ensure(s.netlist != nullptr, "simulate_block: null netlist");
    ensure(scenario_group_equal(nl0, *s.netlist),
           "simulate_block: scenarios must be group-equal");
  }

  // Lanes of any other deck run sim::simulate one by one.
  std::optional<Superposition> superposition;
  if (superposable(nl0)) superposition.emplace(nl0, options, probes);
  for (std::size_t slot = 0; slot < scenarios.size(); ++slot) {
    const BlockScenario& s = scenarios[slot];
    if (s.t_stop > 0.0 && superposition) {
      superposition->add_lane(slot, s.netlist, s.t_stop, s.budget);
      continue;
    }
    try {
      TransientOptions lane = options;
      lane.t_stop = s.t_stop;
      lane.budget = s.budget;
      out[slot].result = simulate(*s.netlist, lane, probes);
    } catch (...) {
      out[slot].error = std::current_exception();
    }
  }
  if (superposition) superposition->run(out);
  return out;
}

}  // namespace rlceff::sim
