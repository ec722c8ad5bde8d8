#include "sim/transient.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "circuit/mna.h"
#include "sim/edge_watch.h"
#include "sim/solver_backend.h"
#include "util/error.h"
#include "util/linalg.h"
#include "util/sparse.h"

namespace rlceff::sim {

namespace {

using ckt::ground;
using ckt::MnaStructure;
using ckt::Netlist;
using ckt::NodeId;
using detail::LinearSolver;
using detail::make_solver;

// Dynamic state carried between time steps.
struct CapacitorState {
  double v = 0.0;  // voltage across the device at the last accepted step
  double i = 0.0;  // current through the device at the last accepted step
};

struct InductorState {
  double i = 0.0;  // branch current at the last accepted step
  double v = 0.0;  // branch voltage at the last accepted step
};

struct DynamicState {
  std::vector<CapacitorState> caps;
  std::vector<InductorState> inds;
};

class Engine {
public:
  Engine(const Netlist& netlist, const TransientOptions& options)
      : nl_(netlist),
        opt_(options),
        structure_(netlist),
        m_(structure_.unknown_count()),
        linear_(netlist.mosfets().empty()),
        cached_(options.assembly == AssemblyMode::cached),
        solver_(make_solver(structure_, options)),
        rhs_(m_, 0.0),
        x_(m_, 0.0),
        x_new_(m_, 0.0) {
    // Resolve every unknown index once so the per-step loops are pure array
    // indexing (node_index() revalidates its arguments on every call).
    node_pos_.resize(nl_.node_count(), npos);
    for (NodeId n = 1; n < nl_.node_count(); ++n) {
      node_pos_[n] = structure_.node_index(n);
    }
    cap_pos_.reserve(nl_.capacitors().size());
    for (const ckt::Capacitor& c : nl_.capacitors()) {
      cap_pos_.push_back({c.a == ground ? npos : node_pos_[c.a],
                          c.b == ground ? npos : node_pos_[c.b]});
    }
    ind_pos_.resize(nl_.inductors().size());
    for (std::size_t k = 0; k < nl_.inductors().size(); ++k) {
      ind_pos_[k] = structure_.inductor_index(k);
    }
    vsrc_pos_.resize(nl_.vsources().size());
    for (std::size_t k = 0; k < nl_.vsources().size(); ++k) {
      vsrc_pos_[k] = structure_.vsource_index(k);
    }
    mos_pos_.reserve(nl_.mosfets().size());
    for (const ckt::Mosfet& mos : nl_.mosfets()) {
      mos_pos_.push_back({mos.drain == ground ? npos : node_pos_[mos.drain],
                          mos.gate == ground ? npos : node_pos_[mos.gate],
                          mos.source == ground ? npos : node_pos_[mos.source]});
    }
  }

  const MnaStructure& structure() const { return structure_; }

  std::span<const double> solution() const { return x_; }

  double voltage(NodeId n) const { return n == ground ? 0.0 : x_[node_pos_[n]]; }

  double inductor_current(std::size_t k) const { return x_[ind_pos_[k]]; }

  // Copies the node-voltage part of the solution into `out` (indexed by
  // NodeId, ground stays 0); used by the recording loop without re-resolving
  // unknown indices.
  void node_voltages_into(std::span<double> out) const {
    for (NodeId n = 1; n < nl_.node_count(); ++n) out[n] = x_[node_pos_[n]];
  }

  // Solves one (DC or companion-model) nonlinear system at time `t` with
  // step `h` (h <= 0 selects DC: capacitors open, inductors shorted) and
  // leaves the solution in x_ (also the initial Newton guess).
  void newton(double t, double h, const DynamicState& state, double gmin) {
    if (linear_ && cached_) {
      // Factor-once fast path: the companion matrix depends only on (h, gmin),
      // so a whole fixed-step run is one factorization plus a substitution
      // sweep per step.  Nothing in here allocates.
      ensure_factored(h, gmin);
      assemble_rhs(t, h, state);
      solver_->solve_into(rhs_);
      std::swap(x_, rhs_);
      return;
    }

    if (cached_) ensure_static(h, gmin);
    const int max_newton = util::capped_iterations(
        opt_.max_newton, opt_.budget ? opt_.budget->spec().max_newton_iter : 0);
    for (int iter = 0; iter < max_newton; ++iter) {
      if (opt_.budget) opt_.budget->check("transient newton");
      if (cached_) {
        // Restore the linear stamps by memcpy; only the MOSFET entries and
        // the RHS are re-stamped below.
        solver_->load_static();
      } else {
        solver_->clear();
        detail::assemble_static_stamps(*solver_, nl_, structure_, h, gmin, opt_,
                                       cached_);
      }
      assemble_rhs(t, h, state);
      stamp_mosfets();
      solver_->factor();
      std::copy(rhs_.begin(), rhs_.end(), x_new_.begin());
      solver_->solve_into(x_new_);
      if (linear_) {
        std::swap(x_, x_new_);
        return;
      }

      double max_dv = 0.0;
      for (std::size_t k = 0; k < m_; ++k) {
        max_dv = std::max(max_dv, std::abs(x_new_[k] - x_[k]));
      }
      if (max_dv < opt_.v_abstol + opt_.rel_tol * 1.0) {
        std::swap(x_, x_new_);
        return;
      }

      // Damped update keeps the MOSFET linearization inside its trust region.
      const double scale = std::min(1.0, opt_.newton_damping_v / max_dv);
      for (std::size_t k = 0; k < m_; ++k) x_[k] += scale * (x_new_[k] - x_[k]);
    }
    if (max_newton < opt_.max_newton) {
      throw BudgetError("transient: Newton iteration budget of " +
                        std::to_string(max_newton) + " exhausted");
    }
    throw ConvergenceError("transient: Newton failed to converge");
  }

  // Non-finite solution guard: a NaN/Inf stamp (or a numerically destroyed
  // factorization) propagates through the whole solution vector; surface it
  // as a singular-system failure instead of letting NaN waveforms escape the
  // linear fast path, which has no convergence check of its own.
  bool solution_finite() const {
    for (double v : x_) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  }

private:
  // Re-assembles (and for linear circuits factors) the static matrix only
  // when the step size or gmin changed: once for DC, once for the regular
  // step, and once more for a shortened final step.
  void ensure_factored(double h, double gmin) {
    if (factored_valid_ && h == static_h_ && gmin == static_gmin_) return;
    solver_->clear();
    detail::assemble_static_stamps(*solver_, nl_, structure_, h, gmin, opt_,
                                   cached_);
    solver_->factor();
    factored_valid_ = true;
    static_valid_ = false;
    static_h_ = h;
    static_gmin_ = gmin;
  }

  void ensure_static(double h, double gmin) {
    if (static_valid_ && h == static_h_ && gmin == static_gmin_) return;
    solver_->clear();
    detail::assemble_static_stamps(*solver_, nl_, structure_, h, gmin, opt_,
                                   cached_);
    solver_->save_static();
    static_valid_ = true;
    factored_valid_ = false;
    static_h_ = h;
    static_gmin_ = gmin;
  }

  // Right-hand side: companion currents and source values.  Changes every
  // step, never touches the matrix.
  void assemble_rhs(double t, double h, const DynamicState& state) {
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    const bool dc = h <= 0.0;
    const bool trap = opt_.integrator == Integrator::trapezoidal;

    if (!dc) {
      for (std::size_t k = 0; k < nl_.capacitors().size(); ++k) {
        const CapacitorState& s = state.caps[k];
        const double geq = (trap ? 2.0 : 1.0) * nl_.capacitors()[k].capacitance / h;
        const double ieq = geq * s.v + (trap ? s.i : 0.0);
        // Norton companion: device current = geq * v - ieq, flowing b -> a.
        const auto [ia, ib] = cap_pos_[k];
        if (ib != npos) rhs_[ib] -= ieq;
        if (ia != npos) rhs_[ia] += ieq;
      }
    }

    for (std::size_t k = 0; k < nl_.inductors().size(); ++k) {
      const InductorState& s = state.inds[k];
      const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * nl_.inductors()[k].inductance / h;
      rhs_[ind_pos_[k]] = dc ? 0.0 : (trap ? -s.v - req * s.i : -req * s.i);
    }

    if (!dc) {
      // History term of the mutual coupling, mirroring the matrix stamp.
      for (const ckt::MutualInductor& m : nl_.mutual_inductors()) {
        const double req = (trap ? 2.0 : 1.0) * m.mutual / h;
        rhs_[ind_pos_[m.la]] -= req * state.inds[m.lb].i;
        rhs_[ind_pos_[m.lb]] -= req * state.inds[m.la].i;
      }
    }

    for (std::size_t k = 0; k < nl_.vsources().size(); ++k) {
      rhs_[vsrc_pos_[k]] = nl_.vsources()[k].voltage.value_at(t);
    }
  }

  // MOSFET linearization around the current Newton iterate: the only stamps
  // that change between iterations (matrix and RHS).
  void stamp_mosfets() {
    for (std::size_t k = 0; k < nl_.mosfets().size(); ++k) {
      const ckt::Mosfet& mos = nl_.mosfets()[k];
      const auto [pd, pg, ps] = mos_pos_[k];
      const double vd = pd == npos ? 0.0 : x_[pd];
      const double vg = pg == npos ? 0.0 : x_[pg];
      const double vs = ps == npos ? 0.0 : x_[ps];
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
      if (pd != npos) rhs_[pd] -= ieq;
      if (ps != npos) rhs_[ps] += ieq;
    }
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct CapPos {
    std::size_t a;
    std::size_t b;
  };

  struct MosPos {
    std::size_t drain;
    std::size_t gate;
    std::size_t source;
  };

  const Netlist& nl_;
  const TransientOptions& opt_;
  MnaStructure structure_;
  std::size_t m_;
  bool linear_;
  bool cached_;
  std::unique_ptr<LinearSolver> solver_;

  // Unknown indices resolved once at construction (npos = ground).
  std::vector<std::size_t> node_pos_;
  std::vector<CapPos> cap_pos_;
  std::vector<std::size_t> ind_pos_;
  std::vector<std::size_t> vsrc_pos_;
  std::vector<MosPos> mos_pos_;

  // Preallocated workspaces: the time-step loop never allocates.
  std::vector<double> rhs_;
  std::vector<double> x_;
  std::vector<double> x_new_;

  // Cache key of the static assembly currently held by the solver.
  double static_h_ = std::numeric_limits<double>::quiet_NaN();
  double static_gmin_ = std::numeric_limits<double>::quiet_NaN();
  bool factored_valid_ = false;  // solver holds the factored static matrix
  bool static_valid_ = false;    // solver holds an unfactored static image
};

void solve_dc(Engine& engine, const TransientOptions& options,
              const DynamicState& state) {
  try {
    engine.newton(0.0, 0.0, state, options.gmin);
  } catch (const ConvergenceError&) {
    // gmin stepping: solve a heavily damped system first and walk gmin down.
    for (double gmin = 1e-3; gmin >= options.gmin; gmin *= 1e-2) {
      engine.newton(0.0, 0.0, state, gmin);
    }
    engine.newton(0.0, 0.0, state, options.gmin);
  }
}

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

bool uses_banded_solver(const ckt::Netlist& netlist) {
  return selected_solver(netlist) == SolverKind::banded;
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

void TransientResult::record(double time, std::span<const double> node_voltages) {
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    waves_[k].append(time, node_voltages[probes_[k]]);
  }
}

void TransientResult::record_probe_values(double time,
                                          std::span<const double> per_probe) {
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    waves_[k].append(time, per_probe[k]);
  }
}

OperatingPoint dc_operating_point(const ckt::Netlist& netlist,
                                  const TransientOptions& options) {
  Engine engine(netlist, options);
  DynamicState state{std::vector<CapacitorState>(netlist.capacitors().size()),
                     std::vector<InductorState>(netlist.inductors().size())};
  solve_dc(engine, options, state);
  const std::span<const double> x = engine.solution();

  OperatingPoint op;
  op.node_voltage.resize(netlist.node_count(), 0.0);
  for (ckt::NodeId n = 1; n < netlist.node_count(); ++n) {
    op.node_voltage[n] = x[engine.structure().node_index(n)];
  }
  op.inductor_current.resize(netlist.inductors().size());
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
    op.inductor_current[k] = x[engine.structure().inductor_index(k)];
  }
  op.vsource_current.resize(netlist.vsources().size());
  for (std::size_t k = 0; k < netlist.vsources().size(); ++k) {
    op.vsource_current[k] = x[engine.structure().vsource_index(k)];
  }
  return op;
}

TransientResult simulate(const ckt::Netlist& netlist, const TransientOptions& options,
                         std::span<const ckt::NodeId> probes) {
  ensure(options.t_stop > 0.0 && options.dt > 0.0, "simulate: bad time range");
  Engine engine(netlist, options);

  DynamicState state{std::vector<CapacitorState>(netlist.capacitors().size()),
                     std::vector<InductorState>(netlist.inductors().size())};
  solve_dc(engine, options, state);

  // Seed device state from the operating point (capacitor currents and
  // inductor voltages are zero in steady state).
  for (std::size_t k = 0; k < netlist.capacitors().size(); ++k) {
    const ckt::Capacitor& c = netlist.capacitors()[k];
    state.caps[k].v = engine.voltage(c.a) - engine.voltage(c.b);
    state.caps[k].i = 0.0;
  }
  for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
    state.inds[k].i = engine.inductor_current(k);
    state.inds[k].v = 0.0;
  }

  TransientResult result(std::vector<ckt::NodeId>(probes.begin(), probes.end()),
                         static_cast<std::size_t>(options.t_stop / options.dt) + 2);
  std::vector<double> node_v(netlist.node_count(), 0.0);
  const std::vector<ckt::NodeId>& watched = options.edge_stop.watch;
  std::optional<detail::EdgeWatch> watch;
  if (options.edge_stop.enabled()) {
    for (ckt::NodeId n : watched) {
      ensure(n < netlist.node_count(), "simulate: watched node out of range");
    }
    watch.emplace(options.edge_stop);
  }
  // Records one sample; true once the measured-edge stop has seen every
  // watched crossing.
  auto record = [&](double t) {
    engine.node_voltages_into(node_v);
    result.record(t, node_v);
    return watch && watch->observe([&](std::size_t k) { return node_v[watched[k]]; });
  };
  record(0.0);

  const bool trap = options.integrator == Integrator::trapezoidal;
  double t = 0.0;
  std::int64_t step = 0;
  while (t < options.t_stop - 1e-21) {
    if (options.budget) options.budget->charge_transient_steps(1, "transient");
    const double h = std::min(options.dt, options.t_stop - t);
    const double t_next = t + h;
    engine.newton(t_next, h, state, options.gmin);
    // Periodic (cheap, amortized) non-finite guard; see solution_finite().
    if ((++step & 63) == 0 && !engine.solution_finite()) {
      throw SingularMatrixError("transient: non-finite solution (singular or "
                                "NaN-stamped system)");
    }

    // Advance companion-model state.
    for (std::size_t k = 0; k < netlist.capacitors().size(); ++k) {
      const ckt::Capacitor& c = netlist.capacitors()[k];
      CapacitorState& s = state.caps[k];
      const double v_new = engine.voltage(c.a) - engine.voltage(c.b);
      const double geq = (trap ? 2.0 : 1.0) * c.capacitance / h;
      const double i_new = trap ? geq * (v_new - s.v) - s.i : geq * (v_new - s.v);
      s.v = v_new;
      s.i = i_new;
    }
    for (std::size_t k = 0; k < netlist.inductors().size(); ++k) {
      const ckt::Inductor& l = netlist.inductors()[k];
      InductorState& s = state.inds[k];
      s.i = engine.inductor_current(k);
      s.v = engine.voltage(l.a) - engine.voltage(l.b);
    }

    t = t_next;
    if (record(t)) break;
  }
  if (!engine.solution_finite()) {
    throw SingularMatrixError("transient: non-finite solution (singular or "
                              "NaN-stamped system)");
  }
  return result;
}

}  // namespace rlceff::sim
