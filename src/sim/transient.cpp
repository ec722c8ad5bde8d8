#include "sim/transient.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <type_traits>

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

// The lane count of the stepper sim::simulate runs, fixed at compile time.
using OneLane = std::integral_constant<std::size_t, 1>;

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

// The one transient stepper behind sim::simulate, simulate_block and
// dc_operating_point.  It advances lanes — scenarios of one netlist topology
// that differ only in their source waveforms and horizons — in lockstep from
// their shared DC operating point.
//
// `Lanes` is std::size_t for scenario blocks, or OneLane for sim::simulate
// and dc_operating_point: there every lane loop collapses to scalar code and
// the substitution is the backend's one-lane kernel instance (solve_into),
// so a single deck costs what a dedicated scalar engine would, and a
// batched lane equals its per-slot run by construction.
//
// The system is the reduced one of ckt::MnaStructure.  The solution block
// holds the m_ unknowns and, after them, one known row per source-held
// node, which assemble_rhs fills from each lane's source at the step's time;
// probes, the edge watch and the device sweeps read a known row like any
// other.  A folded R-L branch carries its own state (current and inductor
// voltage) and stamps as a companion conductance plus a history current.  A
// deck with no unknowns left still steps: each step only fills its known
// rows and advances the branch state.
//
// All per-lane data is SoA with a fixed stride W (the initial lane count):
// value of row/device i for lane j lives at [i * W + j].  Active lanes
// occupy columns 0..A-1; lanes retire from the tail (they are added by
// descending t_stop, so the shortest runs sit at the end), while faulted
// lanes and lanes the measured-edge stop ends are removed by a stable left
// shift of the columns behind them (at most once per lane, O(n * k)), which
// preserves the descending order the tail scan relies on.
//
// Each device's rows are resolved before its lane loop (a ground terminal
// reads one shared all-zero row and is never written), and the companion
// coefficients are computed once per step size, so a lane loop holds only
// the lane's arithmetic.
//
// Linear decks under cached assembly solve a step with one factorization
// per (step size, gmin) and a substitution sweep.  MOSFET decks and
// AssemblyMode::naive (one lane only) replace that factor-and-substitute
// with their Newton loop; everything else is shared.
template <class Lanes>
class Stepper {
public:
  static constexpr bool kOneLane = std::is_same_v<Lanes, OneLane>;

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
      cap_pos_.push_back(p);
      cap_c_.push_back(c.capacitance);
    }
    for (const ckt::MnaStructure::FoldedBranch& b : structure_.folded_branches()) {
      const Pair p{pos(b.from), pos(b.to)};
      couple_pair(p, Term::Of::branch, br_pos_.size(), 0.0);
      br_pos_.push_back(p);
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
      ind_nodes_.push_back({pos(l.a), pos(l.b)});
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
    for (const ckt::Mosfet& mos : nl0_.mosfets()) {
      mos_pos_.push_back({pos(mos.drain), pos(mos.gate), pos(mos.source)});
      for (std::size_t p : {pos(mos.drain), pos(mos.gate), pos(mos.source)}) {
        if (unknown(p)) first_mos_col_ = std::min(first_mos_col_, p);
      }
    }
    cap_geq_.resize(cap_pos_.size());
    for (double c : cap_c_) cap_geq_dt_.push_back(2.0 * c / options.dt);
    br_req_.resize(br_pos_.size());
    br_g_.resize(br_pos_.size());
    ind_req_.resize(ind_pos_.size());
    mut_req_.resize(mut_.size());
    for (NodeId p : probes_) probe_pos_.push_back(pos(p));
    if (options.edge_stop.enabled()) {
      for (NodeId n : options.edge_stop.watch) watch_pos_.push_back(pos(n));
    }
  }

  const MnaStructure& structure() const { return structure_; }

  // Appends one lane; lanes must arrive in descending t_stop order.  The
  // tracker is charged one transient step per accepted step of this lane.
  void add_lane(std::size_t slot, const Netlist* netlist, double t_stop,
                util::ExecTracker* budget) {
    lane_slot_.push_back(slot);
    lane_net_.push_back(netlist);
    lane_tstop_.push_back(t_stop);
    lane_budget_.push_back(budget);
    if (!watch_pos_.empty()) lane_watch_.emplace_back(opt_.edge_stop);
  }

  // Sizes the lane blocks and solves every lane's DC operating point
  // (sources at t = 0, capacitors open, inductors shorted) into the
  // solution block, which it returns.
  std::span<const double> solve_dc() {
    if constexpr (!kOneLane) w_ = lane_slot_.size();
    xb_.assign(rows_ * w_, 0.0);
    rhsb_.assign(rows_ * w_, 0.0);
    if (newton_) rhs_lin_.assign(rows_, 0.0);
    cap_hist_.assign(cap_pos_.size() * w_, 0.0);
    br_i_.assign(br_pos_.size() * w_, 0.0);
    br_v_.assign(br_pos_.size() * w_, 0.0);
    ind_i_.assign(ind_pos_.size() * w_, 0.0);
    ind_v_.assign(ind_pos_.size() * w_, 0.0);
    zero_row_.assign(w_, 0.0);
    probe_vals_.assign(probes_.size(), 0.0);
    const std::size_t a = lane_slot_.size();
    try {
      solve(0.0, 0.0, kGmin, a);
    } catch (const ConvergenceError&) {
      // gmin stepping: solve a heavily damped system first and walk gmin down.
      for (double gmin = 1e-3; gmin >= kGmin; gmin *= 1e-2) solve(0.0, 0.0, gmin, a);
      solve(0.0, 0.0, kGmin, a);
    }
    return xb_;
  }

  // Runs every lane to its t_stop or its measured-edge stop, leaving each
  // lane's result or error in out[slot].  Failures of the shared machinery
  // (a singular group matrix, a Newton failure) throw instead.
  void run(std::span<BlockOutcome> out) {
    out_ = out;
    std::size_t a = lane_slot_.size();
    if (a == 0) return;
    for (double t_stop : lane_tstop_) {
      results_.emplace_back(probes_, static_cast<std::size_t>(t_stop / opt_.dt) + 2, kind_);
    }
    solve_dc();
    seed_state(a);
    record(0.0, a);
    retire_measured(a);

    const double dt = opt_.dt;
    double t = 0.0;
    std::int64_t step = 0;
    while (a > 0) {
      // Tail scan: finished lanes retire; a lane within one step of its
      // horizon takes its shortened final step, on the tail solver while
      // other lanes keep integrating, in place when it is the last lane.
      double h = dt;
      while (a > 0) {
        const std::size_t j = a - 1;
        if (t >= lane_tstop_[j] - 1e-21) {
          finalize(j);
          remove_lane(j, a);
          continue;
        }
        if (lane_tstop_[j] - t >= dt) break;
        if (a == 1) {
          h = lane_tstop_[j] - t;
          break;
        }
        tail_step(j, t);
        remove_lane(j, a);
      }
      if (a == 0) break;

      // Per-lane step accounting, with failures confined to the lane.
      for (std::size_t j = 0; j < a;) {
        if (lane_budget_[j]) {
          try {
            lane_budget_[j]->charge_transient_steps(1, "transient");
          } catch (...) {
            out_[lane_slot_[j]].error = std::current_exception();
            remove_lane(j, a);
            continue;
          }
        }
        ++j;
      }
      if (a == 0) break;

      const double t_next = t + h;
      solve(t_next, h, kGmin, a);
      // Periodic (cheap, amortized) non-finite guard: a NaN/Inf stamp (or a
      // numerically destroyed factorization) propagates through the whole
      // solution, and the factor-once path has no convergence check of its
      // own.
      if ((++step & 63) == 0) {
        for (std::size_t j = 0; j < a;) {
          if (lane_finite(j)) {
            ++j;
            continue;
          }
          fail_nonfinite(j);
          remove_lane(j, a);
        }
        if (a == 0) break;
      }
      // A shortened step is its lane's last, so only a regular one advances
      // the companion state.
      if (h == dt) advance_state(a);
      t = t_next;
      record(t, a);
      retire_measured(a);
    }
  }

private:
  struct Pair {
    std::size_t a;
    std::size_t b;
  };

  struct MosPos {
    std::size_t drain;
    std::size_t gate;
    std::size_t source;
  };

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

  // The active lane count as the stepper's lane type.
  static Lanes lanes(std::size_t a) {
    if constexpr (kOneLane) {
      return {};
    } else {
      return a;
    }
  }

  bool holds(double h, double gmin) const { return h == held_h_ && gmin == held_gmin_; }

  // Row `pos` of the solution block, or the all-zero row for ground.
  const double* node_row(std::size_t pos) const {
    return pos == npos ? zero_row_.data() : xb_.data() + pos * w_;
  }

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

  void refactor(detail::LinearSolver& solver, double h, double gmin) {
    solver.clear();
    detail::assemble_static_stamps(solver, nl0_, structure_, h, gmin, opt_,
                                   /*cached_path=*/true);
    factored_columns_ = solver.factor();
  }

  // Solves one step's system at time t with step h (h <= 0: DC) for the
  // active lanes and leaves the solution in xb_.  The factor-once path
  // refactors only when (h, gmin) changes: once for DC, once for the regular
  // step, and once more for a shortened final step.
  void solve(double t, double h, double gmin, std::size_t a) {
    if (m_ == 0) {
      assemble_rhs(t, h, 0, lanes(a));
      std::swap(xb_, rhsb_);
      return;
    }
    if constexpr (kOneLane) {
      if (newton_) {
        newton(t, h, gmin);
        return;
      }
    }
    if (!holds(h, gmin)) {
      refactor(*solver_, h, gmin);
      held_h_ = h;
      held_gmin_ = gmin;
    }
    assemble_rhs(t, h, 0, lanes(a));
    if constexpr (kOneLane) {
      solver_->solve_into(std::span<double>(rhsb_).first(m_));
    } else {
      solver_->solve_block(rhsb_, a, w_);
    }
    std::swap(xb_, rhsb_);
  }

  // Newton-Raphson on the one lane's step system, xb_ holding the iterate
  // (also the initial guess).  The linear right-hand side is the same in
  // every iteration, so it is assembled once, before them, from the last
  // accepted solution; the iterate takes the known nodes' values at t.
  // Cached assembly restores the linear stamps from the static image each
  // iteration and restamps only the MOSFETs, so only columns from
  // first_mos_col_ on change and the banded backend refactors just those;
  // naive assembly rebuilds and refactors the full matrix.
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
    assemble_rhs(t, h, 0, OneLane{});
    std::copy(rhsb_.begin(), rhsb_.end(), rhs_lin_.begin());
    std::copy(rhsb_.begin() + static_cast<std::ptrdiff_t>(m_), rhsb_.end(),
              xb_.begin() + static_cast<std::ptrdiff_t>(m_));
    for (int iter = 0; iter < util::iter_defaults::newton; ++iter) {
      if (opt_.budget) opt_.budget->check("transient newton");
      if (cached) {
        solver_->load_static();
      } else {
        solver_->clear();
        detail::assemble_static_stamps(*solver_, nl0_, structure_, h, gmin, opt_,
                                       /*cached_path=*/false);
      }
      std::copy(rhs_lin_.begin(), rhs_lin_.end(), rhsb_.begin());
      stamp_mosfets();
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

  // MOSFET linearization around the current Newton iterate: the only stamps
  // that change between iterations (matrix and RHS).  A known terminal's
  // column moves to the right-hand side; its row is not in the system.
  void stamp_mosfets() {
    const auto stamp = [&](std::size_t r, std::size_t c, double a) {
      if (r >= m_) return;
      if (c < m_) {
        solver_->add(r, c, a);
      } else if (c != npos) {
        rhsb_[r] -= a * xb_[c];
      }
    };
    for (std::size_t k = 0; k < mos_pos_.size(); ++k) {
      const ckt::Mosfet& mos = nl0_.mosfets()[k];
      const auto [pd, pg, ps] = mos_pos_[k];
      const double vd = pd == npos ? 0.0 : xb_[pd];
      const double vg = pg == npos ? 0.0 : xb_[pg];
      const double vs = ps == npos ? 0.0 : xb_[ps];
      const ckt::MosfetEval e =
          mos.is_pmos ? ckt::eval_pmos(mos.params, mos.width, vg - vs, vd - vs)
                      : ckt::eval_nmos(mos.params, mos.width, vg - vs, vd - vs);
      // Linearized channel current (drain -> source):
      //   i = ieq + gm * vgs + gds * vds.
      const double ieq = e.id - e.gm * (vg - vs) - e.gds * (vd - vs);
      stamp(pd, pd, e.gds);
      stamp(pd, pg, e.gm);
      stamp(pd, ps, -(e.gm + e.gds));
      stamp(ps, ps, e.gm + e.gds);
      stamp(ps, pg, -e.gm);
      stamp(ps, pd, -e.gds);
      // Companion current flows drain -> source.
      if (pd < m_) rhsb_[pd] -= ieq;
      if (ps < m_) rhsb_[ps] += ieq;
    }
  }

  // Right-hand side of lanes [j0, j0 + lanes): known rows, source values,
  // companion currents and known terms.  Changes every step, never touches
  // the matrix.  Device-outer, lane-inner, with the same operation sequence
  // in every lane's column.
  template <class L>
  void assemble_rhs(double t, double h, std::size_t j0, L lanes) {
    std::fill(rhsb_.begin(), rhsb_.end(), 0.0);
    double* rhs = rhsb_.data() + j0;

    // The only lane-divergent input: each lane evaluates its own source
    // waveforms (the matrix never sees them), into the known rows and the
    // branch rows of the sources that keep one.
    for (std::size_t q = 0; q < rows_ - m_; ++q) {
      const std::size_t src = structure_.known_source(q);
      double* row = rhs + (m_ + q) * w_;
      for (std::size_t j = 0; j < lanes; ++j) {
        row[j] = lane_net_[j0 + j]->vsources()[src].voltage.value_at(t);
      }
    }
    for (std::size_t k = 0; k < vsrc_pos_.size(); ++k) {
      double* row = rhs + vsrc_pos_[k] * w_;
      for (std::size_t j = 0; j < lanes; ++j) {
        row[j] = lane_net_[j0 + j]->vsources()[vsrc_dev_[k]].voltage.value_at(t);
      }
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
      for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
        const auto [pa, pb] = cap_pos_[k];
        const double* __restrict sh = cap_hist_.data() + k * w_ + j0;
        if (regular) {
          stamp_history(pa, pb, rhs, lanes, [&](std::size_t j) { return sh[j]; });
          continue;
        }
        const double dg = cap_geq_[k] - cap_geq_dt_[k];
        const double* __restrict va = node_row(pa) + j0;
        const double* __restrict vb = node_row(pb) + j0;
        stamp_history(pa, pb, rhs, lanes,
                      [&](std::size_t j) { return sh[j] + dg * (va[j] - vb[j]); });
      }

      // Folded branch: current G * (v + e) from `from` to `to`, with the
      // history voltage e = v_L + req * i.
      for (std::size_t k = 0; k < br_pos_.size(); ++k) {
        const double g = br_g_[k];
        const double req = br_req_[k];
        const auto [pf, pt] = br_pos_[k];
        const double* __restrict si = br_i_.data() + k * w_ + j0;
        const double* __restrict sv = br_v_.data() + k * w_ + j0;
        stamp_history(pt, pf, rhs, lanes,
                      [&](std::size_t j) { return g * (sv[j] + req * si[j]); });
      }

      for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
        const double req = ind_req_[k];
        const double* __restrict sv = ind_v_.data() + k * w_ + j0;
        const double* __restrict si = ind_i_.data() + k * w_ + j0;
        double* __restrict row = rhs + ind_pos_[k] * w_;
        for (std::size_t j = 0; j < lanes; ++j) row[j] = -sv[j] - req * si[j];
      }

      // History term of the mutual coupling, mirroring the matrix stamp.
      for (std::size_t k = 0; k < mut_.size(); ++k) {
        const double req = mut_req_[k];
        double* rowa = rhs + ind_pos_[mut_[k].a] * w_;
        double* rowb = rhs + ind_pos_[mut_[k].b] * w_;
        const double* ia = ind_i_.data() + mut_[k].a * w_ + j0;
        const double* ib = ind_i_.data() + mut_[k].b * w_ + j0;
        for (std::size_t j = 0; j < lanes; ++j) rowa[j] -= req * ib[j];
        for (std::size_t j = 0; j < lanes; ++j) rowb[j] -= req * ia[j];
      }
    }

    for (const Term& term : known_terms_) {
      const double a = term.a;
      double* __restrict row = rhs + term.row * w_;
      const double* __restrict v = rhs + term.known * w_;
      for (std::size_t j = 0; j < lanes; ++j) row[j] -= a * v[j];
    }
  }

  // Adds a history current `ieq(j)` that flows into row `in` and out of row
  // `out` (each skipped unless it is an unknown); the branch on the
  // terminals is per device, not per lane.
  template <class L, class Ieq>
  void stamp_history(std::size_t in, std::size_t out, double* rhs, L lanes, Ieq ieq) {
    double* ra = in < m_ ? rhs + in * w_ : nullptr;
    double* rb = out < m_ ? rhs + out * w_ : nullptr;
    const auto stamp = [&](auto to_a, auto to_b) {
      for (std::size_t j = 0; j < lanes; ++j) {
        const double i = ieq(j);
        if constexpr (to_b) rb[j] -= i;
        if constexpr (to_a) ra[j] += i;
      }
    };
    if (ra != nullptr && rb != nullptr) {
      stamp(std::true_type{}, std::true_type{});
    } else if (rb != nullptr) {
      stamp(std::false_type{}, std::true_type{});
    } else if (ra != nullptr) {
      stamp(std::true_type{}, std::false_type{});
    }
  }

  // Seeds device state from the operating point: capacitor currents and
  // inductor voltages are zero in steady state, and a folded branch's
  // inductor is a short, so its current is its voltage over R.
  void seed_state(std::size_t a) {
    const Lanes n = lanes(a);
    for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
      const double geq = cap_geq_dt_[k];
      const double* __restrict va = node_row(cap_pos_[k].a);
      const double* __restrict vb = node_row(cap_pos_[k].b);
      double* __restrict sh = cap_hist_.data() + k * w_;
      for (std::size_t j = 0; j < n; ++j) sh[j] = geq * (va[j] - vb[j]);
    }
    for (std::size_t k = 0; k < br_pos_.size(); ++k) {
      const double r = br_r_[k];
      const double* __restrict vf = node_row(br_pos_[k].a);
      const double* __restrict vt = node_row(br_pos_[k].b);
      double* __restrict si = br_i_.data() + k * w_;
      for (std::size_t j = 0; j < n; ++j) si[j] = (vf[j] - vt[j]) / r;
    }
    for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
      double* __restrict si = ind_i_.data() + k * w_;
      const double* __restrict row = xb_.data() + ind_pos_[k] * w_;
      for (std::size_t j = 0; j < n; ++j) si[j] = row[j];
    }
  }

  // Advances the companion-model state to the solution a regular step (of
  // size dt) just accepted.  A capacitor's history becomes
  // geq * v' + i' = 2 * geq * v' - ieq.
  void advance_state(std::size_t a) {
    const Lanes n = lanes(a);
    set_companions(opt_.dt);
    for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
      const double geq2 = 2.0 * cap_geq_dt_[k];
      const double* __restrict va = node_row(cap_pos_[k].a);
      const double* __restrict vb = node_row(cap_pos_[k].b);
      double* __restrict sh = cap_hist_.data() + k * w_;
      for (std::size_t j = 0; j < n; ++j) sh[j] = geq2 * (va[j] - vb[j]) - sh[j];
    }
    for (std::size_t k = 0; k < br_pos_.size(); ++k) {
      const double g = br_g_[k];
      const double req = br_req_[k];
      const double r = br_r_[k];
      const double* __restrict vf = node_row(br_pos_[k].a);
      const double* __restrict vt = node_row(br_pos_[k].b);
      double* __restrict si = br_i_.data() + k * w_;
      double* __restrict sv = br_v_.data() + k * w_;
      for (std::size_t j = 0; j < n; ++j) {
        const double v = vf[j] - vt[j];
        const double i_new = g * (v + (sv[j] + req * si[j]));
        si[j] = i_new;
        sv[j] = v - r * i_new;
      }
    }
    for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
      const double* __restrict va = node_row(ind_nodes_[k].a);
      const double* __restrict vb = node_row(ind_nodes_[k].b);
      double* __restrict si = ind_i_.data() + k * w_;
      double* __restrict sv = ind_v_.data() + k * w_;
      const double* __restrict row = xb_.data() + ind_pos_[k] * w_;
      for (std::size_t j = 0; j < n; ++j) {
        si[j] = row[j];
        sv[j] = va[j] - vb[j];
      }
    }
  }

  void record_lane(std::size_t j, double t) {
    for (std::size_t p = 0; p < probe_pos_.size(); ++p) {
      probe_vals_[p] = probe_pos_[p] == npos ? 0.0 : xb_[probe_pos_[p] * w_ + j];
    }
    results_[j].record_probe_values(t, probe_vals_);
  }

  void record(double t, std::size_t a) {
    const Lanes n = lanes(a);
    for (std::size_t j = 0; j < n; ++j) record_lane(j, t);
  }

  // Measured-edge stop, decided per lane on the sample just recorded: a lane
  // whose watched nodes completed their edges ends here, final finiteness
  // guard included.
  void retire_measured(std::size_t& a) {
    if (lane_watch_.empty()) return;
    for (std::size_t j = 0; j < a;) {
      const bool done = lane_watch_[j].observe([&](std::size_t k) {
        return watch_pos_[k] == npos ? 0.0 : xb_[watch_pos_[k] * w_ + j];
      });
      if (!done) {
        ++j;
        continue;
      }
      finalize(j);
      remove_lane(j, a);
    }
  }

  // Shortened final step (h = t_stop - t < dt) of lane j while other lanes
  // keep integrating, run on a dedicated tail solver: identical stamps and
  // the identical factorization algorithm produce the factor an in-place
  // refactor would, so the lane's last sample is bitwise-identical to a lone
  // run's.  The solution lands in rhsb_'s column j and is copied into xb_.
  void tail_step(std::size_t j, double t) {
    try {
      if (lane_budget_[j]) lane_budget_[j]->charge_transient_steps(1, "transient");
      const double h = lane_tstop_[j] - t;
      assemble_rhs(t + h, h, j, OneLane{});
      if (m_ > 0) {
        if (!tail_) tail_ = detail::make_solver(structure_, kind_, opt_.budget);
        refactor(*tail_, h, kGmin);
        tail_->solve_block(std::span<double>(rhsb_).subspan(j), 1, w_);
      }
      for (std::size_t i = 0; i < rows_; ++i) xb_[i * w_ + j] = rhsb_[i * w_ + j];
      record_lane(j, t + h);
      finalize(j);
    } catch (...) {
      out_[lane_slot_[j]].error = std::current_exception();
    }
  }

  bool lane_finite(std::size_t j) const {
    for (std::size_t i = 0; i < rows_; ++i) {
      if (!std::isfinite(xb_[i * w_ + j])) return false;
    }
    return true;
  }

  void fail_nonfinite(std::size_t j) {
    out_[lane_slot_[j]].error = std::make_exception_ptr(SingularMatrixError(
        "transient: non-finite solution (singular or NaN-stamped system)"));
  }

  // A lane that ended: its result, unless the final finiteness guard fails.
  void finalize(std::size_t j) {
    if (!lane_finite(j)) {
      fail_nonfinite(j);
      return;
    }
    results_[j].set_factored_columns(factored_columns_);
    out_[lane_slot_[j]].result = std::move(results_[j]);
  }

  // Removes active lane j: shifts the columns behind it left so the
  // descending-t_stop order (and every lane's column index) stays
  // consistent.  The tail lane shifts nothing.
  void remove_lane(std::size_t j, std::size_t& a) {
    auto shift = [&](std::vector<double>& arr, std::size_t rows) {
      for (std::size_t i = 0; i < rows; ++i) {
        double* row = arr.data() + i * w_;
        for (std::size_t c = j; c + 1 < a; ++c) row[c] = row[c + 1];
      }
    };
    if (j + 1 < a) {
      shift(xb_, rows_);
      shift(cap_hist_, cap_pos_.size());
      shift(br_i_, br_pos_.size());
      shift(br_v_, br_pos_.size());
      shift(ind_i_, ind_pos_.size());
      shift(ind_v_, ind_pos_.size());
    }
    const auto at = static_cast<std::ptrdiff_t>(j);
    lane_slot_.erase(lane_slot_.begin() + at);
    lane_net_.erase(lane_net_.begin() + at);
    lane_tstop_.erase(lane_tstop_.begin() + at);
    lane_budget_.erase(lane_budget_.begin() + at);
    results_.erase(results_.begin() + at);
    if (!lane_watch_.empty()) lane_watch_.erase(lane_watch_.begin() + at);
    --a;
  }

  const TransientOptions& opt_;
  const Netlist& nl0_;
  MnaStructure structure_;
  std::size_t m_;     // unknowns
  std::size_t rows_;  // solution-block rows: the unknowns, then the known rows
  bool newton_;
  SolverKind kind_;  // the backend every solve of this run factors with
  std::unique_ptr<detail::LinearSolver> solver_;  // null without unknowns
  std::unique_ptr<detail::LinearSolver> tail_;
  std::vector<NodeId> probes_;
  std::span<BlockOutcome> out_;

  // Rows resolved once at construction (npos = ground), and the device
  // values the companion coefficients are computed from.
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

  // Active-lane bookkeeping, sorted by descending t_stop.
  std::vector<std::size_t> lane_slot_;
  std::vector<const Netlist*> lane_net_;
  std::vector<double> lane_tstop_;
  std::vector<util::ExecTracker*> lane_budget_;
  std::vector<TransientResult> results_;
  std::vector<EdgeWatch> lane_watch_;  // empty when the stop is off

  // SoA blocks with fixed stride w_ (lane j of row i at [i * w_ + j]).
  // Preallocated: the time-step loop never allocates.
  [[no_unique_address]] Lanes w_{};
  std::vector<double> xb_;    // solution (the Newton iterate on that path)
  std::vector<double> rhsb_;  // right-hand side, solved in place
  std::vector<double> rhs_lin_;  // a Newton step's linear right-hand side
  std::vector<double> cap_hist_;  // capacitor history geq * v + i at dt
  std::vector<double> br_i_;  // folded branch current
  std::vector<double> br_v_;  // folded branch inductor voltage
  std::vector<double> ind_i_;
  std::vector<double> ind_v_;
  std::vector<double> zero_row_;  // a ground terminal's row: w_ zeros
  std::vector<double> probe_vals_;

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

void TransientResult::record_probe_values(double time,
                                          std::span<const double> per_probe) {
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    waves_[k].append(time, per_probe[k]);
  }
}

OperatingPoint dc_operating_point(const ckt::Netlist& netlist,
                                  const TransientOptions& options) {
  Stepper<OneLane> stepper(netlist, options, {});
  stepper.add_lane(0, &netlist, options.t_stop, options.budget);
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
  Stepper<OneLane> stepper(netlist, options, probes);
  stepper.add_lane(0, &netlist, options.t_stop, options.budget);
  BlockOutcome out;
  stepper.run(std::span<BlockOutcome>(&out, 1));
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

  Stepper<std::size_t> stepper(nl0, options, probes);
  // Longest-running lanes first, stable so equal t_stops keep input order.
  std::vector<std::size_t> order(scenarios.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scenarios[a].t_stop > scenarios[b].t_stop;
  });
  for (std::size_t slot : order) {
    const BlockScenario& s = scenarios[slot];
    if (s.t_stop > 0.0) {
      stepper.add_lane(slot, s.netlist, s.t_stop, s.budget);
      continue;
    }
    // sim::simulate's precondition, confined to this lane.
    try {
      ensure(false, "simulate: bad time range");
    } catch (...) {
      out[slot].error = std::current_exception();
    }
  }
  stepper.run(out);
  return out;
}

}  // namespace rlceff::sim
