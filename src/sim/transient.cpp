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
// All per-lane data is SoA with a fixed stride W (the initial lane count):
// value of unknown/device i for lane j lives at [i * W + j].  Active lanes
// occupy columns 0..A-1; lanes retire from the tail (they are added by
// descending t_stop, so the shortest runs sit at the end), while faulted
// lanes and lanes the measured-edge stop ends are removed by a stable left
// shift of the columns behind them (at most once per lane, O(n * k)), which
// preserves the descending order the tail scan relies on.
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
        structure_(netlist),
        m_(structure_.unknown_count()),
        newton_(!netlist.mosfets().empty() || options.assembly == AssemblyMode::naive),
        solver_(detail::make_solver(structure_, options)),
        probes_(probes.begin(), probes.end()) {
    // Resolve every unknown index once so the per-step loops are pure array
    // indexing (node_index() revalidates its arguments on every call).
    std::vector<std::size_t> node_pos(nl0_.node_count(), npos);
    for (NodeId n = 1; n < nl0_.node_count(); ++n) {
      node_pos[n] = structure_.node_index(n);
    }
    auto pos = [&](NodeId n) { return n == ground ? npos : node_pos[n]; };
    for (const ckt::Capacitor& c : nl0_.capacitors()) {
      cap_pos_.push_back({pos(c.a), pos(c.b)});
    }
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const ckt::Inductor& l = nl0_.inductors()[k];
      ind_pos_.push_back(structure_.inductor_index(k));
      ind_nodes_.push_back({pos(l.a), pos(l.b)});
    }
    for (std::size_t k = 0; k < nl0_.vsources().size(); ++k) {
      vsrc_pos_.push_back(structure_.vsource_index(k));
    }
    for (const ckt::Mosfet& mos : nl0_.mosfets()) {
      mos_pos_.push_back({pos(mos.drain), pos(mos.gate), pos(mos.source)});
      first_mos_col_ = std::min({first_mos_col_, mos_pos_.back().drain,
                                 mos_pos_.back().gate, mos_pos_.back().source});
    }
    for (NodeId p : probes_) probe_pos_.push_back(pos(p));
    if (options.edge_stop.enabled()) {
      for (NodeId n : options.edge_stop.watch) {
        ensure(n < nl0_.node_count(), "simulate: watched node out of range");
        watch_pos_.push_back(pos(n));
      }
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
    xb_.assign(m_ * w_, 0.0);
    rhsb_.assign(m_ * w_, 0.0);
    cap_v_.assign(cap_pos_.size() * w_, 0.0);
    cap_i_.assign(cap_pos_.size() * w_, 0.0);
    ind_i_.assign(ind_pos_.size() * w_, 0.0);
    ind_v_.assign(ind_pos_.size() * w_, 0.0);
    probe_vals_.assign(probes_.size(), 0.0);
    const std::size_t a = lane_slot_.size();
    try {
      solve(0.0, 0.0, opt_.gmin, a);
    } catch (const ConvergenceError&) {
      // gmin stepping: solve a heavily damped system first and walk gmin down.
      for (double gmin = 1e-3; gmin >= opt_.gmin; gmin *= 1e-2) solve(0.0, 0.0, gmin, a);
      solve(0.0, 0.0, opt_.gmin, a);
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
      results_.emplace_back(probes_, static_cast<std::size_t>(t_stop / opt_.dt) + 2);
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
      solve(t_next, h, opt_.gmin, a);
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
      advance_state(h, a);
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

  // The active lane count as the stepper's lane type.
  static Lanes lanes(std::size_t a) {
    if constexpr (kOneLane) {
      return {};
    } else {
      return a;
    }
  }

  bool holds(double h, double gmin) const { return h == held_h_ && gmin == held_gmin_; }

  void refactor(detail::LinearSolver& solver, double h, double gmin) {
    solver.clear();
    detail::assemble_static_stamps(solver, nl0_, structure_, h, gmin, opt_,
                                   /*cached_path=*/true);
    solver.factor();
  }

  // Solves one step's system at time t with step h (h <= 0: DC) for the
  // active lanes and leaves the solution in xb_.  The factor-once path
  // refactors only when (h, gmin) changes: once for DC, once for the regular
  // step, and once more for a shortened final step.
  void solve(double t, double h, double gmin, std::size_t a) {
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
      solver_->solve_into(rhsb_);
    } else {
      solver_->solve_block(rhsb_, a, w_);
    }
    std::swap(xb_, rhsb_);
  }

  // Newton-Raphson on the one lane's step system, xb_ holding the iterate
  // (also the initial guess).  Cached assembly restores the linear stamps
  // from the static image each iteration and restamps only the MOSFETs, so
  // only columns from first_mos_col_ on change and the banded backend
  // refactors just those; naive assembly rebuilds and refactors the full
  // matrix.
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
    for (int iter = 0; iter < util::iter_defaults::newton; ++iter) {
      if (opt_.budget) opt_.budget->check("transient newton");
      if (cached) {
        solver_->load_static();
      } else {
        solver_->clear();
        detail::assemble_static_stamps(*solver_, nl0_, structure_, h, gmin, opt_,
                                       /*cached_path=*/false);
      }
      assemble_rhs(t, h, 0, OneLane{});
      stamp_mosfets();
      solver_->factor();
      solver_->solve_into(rhsb_);
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
  // that change between iterations (matrix and RHS).
  void stamp_mosfets() {
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
      if (pd != npos) {
        solver_->add(pd, pd, e.gds);
        if (pg != npos) solver_->add(pd, pg, e.gm);
        if (ps != npos) solver_->add(pd, ps, -(e.gm + e.gds));
      }
      if (ps != npos) {
        solver_->add(ps, ps, e.gm + e.gds);
        if (pg != npos) solver_->add(ps, pg, -e.gm);
        if (pd != npos) solver_->add(ps, pd, -e.gds);
      }
      // Companion current flows drain -> source.
      if (pd != npos) rhsb_[pd] -= ieq;
      if (ps != npos) rhsb_[ps] += ieq;
    }
  }

  // Right-hand side of lanes [j0, j0 + lanes): companion currents and
  // source values.  Changes every step, never touches the matrix.
  // Device-outer, lane-inner, with the same operation sequence in every
  // lane's column.
  template <class L>
  void assemble_rhs(double t, double h, std::size_t j0, L lanes) {
    std::fill(rhsb_.begin(), rhsb_.end(), 0.0);
    double* rhs = rhsb_.data() + j0;
    const bool dc = h <= 0.0;
    const bool trap = opt_.integrator == Integrator::trapezoidal;

    if (!dc) {
      for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
        const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
        const auto [pa, pb] = cap_pos_[k];
        const double* sv = cap_v_.data() + k * w_ + j0;
        const double* si = cap_i_.data() + k * w_ + j0;
        for (std::size_t j = 0; j < lanes; ++j) {
          // Norton companion: device current = geq * v - ieq, flowing b -> a.
          const double ieq = geq * sv[j] + (trap ? si[j] : 0.0);
          if (pb != npos) rhs[pb * w_ + j] -= ieq;
          if (pa != npos) rhs[pa * w_ + j] += ieq;
        }
      }
    }

    for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
      const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * nl0_.inductors()[k].inductance / h;
      const double* sv = ind_v_.data() + k * w_ + j0;
      const double* si = ind_i_.data() + k * w_ + j0;
      double* row = rhs + ind_pos_[k] * w_;
      for (std::size_t j = 0; j < lanes; ++j) {
        row[j] = dc ? 0.0 : (trap ? -sv[j] - req * si[j] : -req * si[j]);
      }
    }

    if (!dc) {
      // History term of the mutual coupling, mirroring the matrix stamp.
      for (const ckt::MutualInductor& m : nl0_.mutual_inductors()) {
        const double req = (trap ? 2.0 : 1.0) * m.mutual / h;
        double* rowa = rhs + ind_pos_[m.la] * w_;
        double* rowb = rhs + ind_pos_[m.lb] * w_;
        const double* ia = ind_i_.data() + m.la * w_ + j0;
        const double* ib = ind_i_.data() + m.lb * w_ + j0;
        for (std::size_t j = 0; j < lanes; ++j) rowa[j] -= req * ib[j];
        for (std::size_t j = 0; j < lanes; ++j) rowb[j] -= req * ia[j];
      }
    }

    // The only lane-divergent input: each lane evaluates its own source
    // waveforms (the matrix never sees them).
    for (std::size_t k = 0; k < vsrc_pos_.size(); ++k) {
      double* row = rhs + vsrc_pos_[k] * w_;
      for (std::size_t j = 0; j < lanes; ++j) {
        row[j] = lane_net_[j0 + j]->vsources()[k].voltage.value_at(t);
      }
    }
  }

  // Seeds device state from the operating point (capacitor currents and
  // inductor voltages are zero in steady state).
  void seed_state(std::size_t a) {
    const Lanes n = lanes(a);
    for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
      const auto [pa, pb] = cap_pos_[k];
      double* sv = cap_v_.data() + k * w_;
      for (std::size_t j = 0; j < n; ++j) {
        const double va = pa == npos ? 0.0 : xb_[pa * w_ + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w_ + j];
        sv[j] = va - vb;
      }
    }
    for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
      double* si = ind_i_.data() + k * w_;
      const double* row = xb_.data() + ind_pos_[k] * w_;
      for (std::size_t j = 0; j < n; ++j) si[j] = row[j];
    }
  }

  // Advances the companion-model state to the solution just accepted.
  void advance_state(double h, std::size_t a) {
    const Lanes n = lanes(a);
    const bool trap = opt_.integrator == Integrator::trapezoidal;
    for (std::size_t k = 0; k < cap_pos_.size(); ++k) {
      const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
      const auto [pa, pb] = cap_pos_[k];
      double* sv = cap_v_.data() + k * w_;
      double* si = cap_i_.data() + k * w_;
      for (std::size_t j = 0; j < n; ++j) {
        const double va = pa == npos ? 0.0 : xb_[pa * w_ + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w_ + j];
        const double v_new = va - vb;
        const double i_new =
            trap ? geq * (v_new - sv[j]) - si[j] : geq * (v_new - sv[j]);
        sv[j] = v_new;
        si[j] = i_new;
      }
    }
    for (std::size_t k = 0; k < ind_pos_.size(); ++k) {
      const auto [pa, pb] = ind_nodes_[k];
      double* si = ind_i_.data() + k * w_;
      double* sv = ind_v_.data() + k * w_;
      const double* row = xb_.data() + ind_pos_[k] * w_;
      for (std::size_t j = 0; j < n; ++j) {
        si[j] = row[j];
        const double va = pa == npos ? 0.0 : xb_[pa * w_ + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w_ + j];
        sv[j] = va - vb;
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
      if (!tail_) tail_ = detail::make_solver(structure_, opt_);
      refactor(*tail_, h, opt_.gmin);
      assemble_rhs(t + h, h, j, OneLane{});
      tail_->solve_block(std::span<double>(rhsb_).subspan(j), 1, w_);
      for (std::size_t i = 0; i < m_; ++i) xb_[i * w_ + j] = rhsb_[i * w_ + j];
      record_lane(j, t + h);
      finalize(j);
    } catch (...) {
      out_[lane_slot_[j]].error = std::current_exception();
    }
  }

  bool lane_finite(std::size_t j) const {
    for (std::size_t i = 0; i < m_; ++i) {
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
      shift(xb_, m_);
      shift(cap_v_, cap_pos_.size());
      shift(cap_i_, cap_pos_.size());
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
  std::size_t m_;
  bool newton_;
  std::unique_ptr<detail::LinearSolver> solver_;
  std::unique_ptr<detail::LinearSolver> tail_;
  std::vector<NodeId> probes_;
  std::span<BlockOutcome> out_;

  // Unknown indices resolved once at construction (npos = ground).
  std::vector<Pair> cap_pos_;
  std::vector<std::size_t> ind_pos_;
  std::vector<Pair> ind_nodes_;
  std::vector<std::size_t> vsrc_pos_;
  std::vector<MosPos> mos_pos_;
  std::size_t first_mos_col_ = npos;  // smallest MOSFET terminal position
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
  std::vector<double> cap_v_;
  std::vector<double> cap_i_;
  std::vector<double> ind_i_;
  std::vector<double> ind_v_;
  std::vector<double> probe_vals_;

  // (h, gmin) of the matrix the solver holds: the factored matrix on the
  // factor-once path, the saved static image on the cached Newton path.
  double held_h_ = std::numeric_limits<double>::quiet_NaN();
  double held_gmin_ = std::numeric_limits<double>::quiet_NaN();
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
  const MnaStructure structure(netlist);
  return detail::resolve_solver_kind(structure.unknown_count(), structure.bandwidth(),
                                     structure.pattern_nonzeros(), options);
}

TransientResult::TransientResult(std::vector<ckt::NodeId> probes, std::size_t reserve_steps)
    : probes_(std::move(probes)), waves_(probes_.size()) {
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
    op.node_voltage[n] = x[structure.node_index(n)];
  }
  op.inductor_current.resize(netlist.inductors().size());
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
    op.inductor_current[k] = x[structure.inductor_index(k)];
  }
  op.vsource_current.resize(netlist.vsources().size());
  for (std::size_t k = 0; k < netlist.vsources().size(); ++k) {
    op.vsource_current[k] = x[structure.vsource_index(k)];
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
