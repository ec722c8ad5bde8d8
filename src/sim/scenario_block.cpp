#include "sim/scenario_block.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "circuit/mna.h"
#include "sim/edge_watch.h"
#include "sim/solver_backend.h"
#include "util/error.h"

namespace rlceff::sim {

namespace {

using ckt::ground;
using ckt::MnaStructure;
using ckt::Netlist;
using ckt::NodeId;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

// --------------------------------------------------------------- grouping ---

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_bits(double a, double b) { return bits(a) == bits(b); }

// FNV-1a over 64-bit words, bytewise.  Collisions are harmless (the
// exhaustive confirms decide), so this only needs to spread well enough
// that unrelated topologies rarely share a bucket.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(bits(v)); }
};

}  // namespace

std::uint64_t scenario_group_hash(const Netlist& netlist,
                                  const TransientOptions& options) {
  Fnv64 f;
  f.mix(static_cast<std::uint64_t>(netlist.node_count()));
  f.mix(static_cast<std::uint64_t>(netlist.resistors().size()));
  for (const ckt::Resistor& r : netlist.resistors()) {
    f.mix(static_cast<std::uint64_t>(r.a));
    f.mix(static_cast<std::uint64_t>(r.b));
    f.mix(r.resistance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.capacitors().size()));
  for (const ckt::Capacitor& c : netlist.capacitors()) {
    f.mix(static_cast<std::uint64_t>(c.a));
    f.mix(static_cast<std::uint64_t>(c.b));
    f.mix(c.capacitance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.inductors().size()));
  for (const ckt::Inductor& l : netlist.inductors()) {
    f.mix(static_cast<std::uint64_t>(l.a));
    f.mix(static_cast<std::uint64_t>(l.b));
    f.mix(l.inductance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.mutual_inductors().size()));
  for (const ckt::MutualInductor& m : netlist.mutual_inductors()) {
    f.mix(static_cast<std::uint64_t>(m.la));
    f.mix(static_cast<std::uint64_t>(m.lb));
    f.mix(m.mutual);
  }
  // Source incidence shapes the matrix; the waveform only shapes the RHS.
  f.mix(static_cast<std::uint64_t>(netlist.vsources().size()));
  for (const ckt::VSource& v : netlist.vsources()) {
    f.mix(static_cast<std::uint64_t>(v.pos));
    f.mix(static_cast<std::uint64_t>(v.neg));
  }
  f.mix(static_cast<std::uint64_t>(netlist.mosfets().size()));

  f.mix(options.dt);
  f.mix(options.gmin);
  f.mix(static_cast<std::uint64_t>(options.integrator));
  f.mix(options.v_abstol);
  f.mix(options.i_abstol);
  f.mix(options.rel_tol);
  f.mix(static_cast<std::uint64_t>(options.max_newton));
  f.mix(options.newton_damping_v);
  f.mix(static_cast<std::uint64_t>(options.assembly));
  f.mix(static_cast<std::uint64_t>(options.solver));
  f.mix(static_cast<std::uint64_t>(options.force_dense));
  f.mix(options.debug_cached_stamp_skew);
  f.mix(static_cast<std::uint64_t>(options.debug_cached_stamp_nan));
  return f.h;
}

bool scenario_group_equal(const Netlist& a, const Netlist& b) {
  // Nonlinear stamps depend on the per-lane Newton iterate: never shared.
  if (!a.mosfets().empty() || !b.mosfets().empty()) return false;
  if (a.node_count() != b.node_count()) return false;
  if (a.resistors().size() != b.resistors().size() ||
      a.capacitors().size() != b.capacitors().size() ||
      a.inductors().size() != b.inductors().size() ||
      a.mutual_inductors().size() != b.mutual_inductors().size() ||
      a.vsources().size() != b.vsources().size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.resistors().size(); ++k) {
    const ckt::Resistor& ra = a.resistors()[k];
    const ckt::Resistor& rb = b.resistors()[k];
    if (ra.a != rb.a || ra.b != rb.b || !same_bits(ra.resistance, rb.resistance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.capacitors().size(); ++k) {
    const ckt::Capacitor& ca = a.capacitors()[k];
    const ckt::Capacitor& cb = b.capacitors()[k];
    if (ca.a != cb.a || ca.b != cb.b || !same_bits(ca.capacitance, cb.capacitance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.inductors().size(); ++k) {
    const ckt::Inductor& la = a.inductors()[k];
    const ckt::Inductor& lb = b.inductors()[k];
    if (la.a != lb.a || la.b != lb.b || !same_bits(la.inductance, lb.inductance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.mutual_inductors().size(); ++k) {
    const ckt::MutualInductor& ma = a.mutual_inductors()[k];
    const ckt::MutualInductor& mb = b.mutual_inductors()[k];
    if (ma.la != mb.la || ma.lb != mb.lb || !same_bits(ma.mutual, mb.mutual)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.vsources().size(); ++k) {
    const ckt::VSource& va = a.vsources()[k];
    const ckt::VSource& vb = b.vsources()[k];
    if (va.pos != vb.pos || va.neg != vb.neg) return false;
  }
  return true;
}

bool scenario_options_equal(const TransientOptions& a, const TransientOptions& b) {
  return same_bits(a.dt, b.dt) && same_bits(a.gmin, b.gmin) &&
         a.integrator == b.integrator && same_bits(a.v_abstol, b.v_abstol) &&
         same_bits(a.i_abstol, b.i_abstol) && same_bits(a.rel_tol, b.rel_tol) &&
         a.max_newton == b.max_newton &&
         same_bits(a.newton_damping_v, b.newton_damping_v) &&
         a.assembly == b.assembly && a.solver == b.solver &&
         a.force_dense == b.force_dense &&
         same_bits(a.debug_cached_stamp_skew, b.debug_cached_stamp_skew) &&
         a.debug_cached_stamp_nan == b.debug_cached_stamp_nan &&
         same_bits(a.edge_stop.vdd, b.edge_stop.vdd) &&
         a.edge_stop.watch == b.edge_stop.watch;
}

// ----------------------------------------------------------- block engine ---

namespace {

// Lockstep engine over k lanes.  All per-lane data is SoA with a fixed
// stride W (the initial lane count): value of unknown/device i for lane j
// lives at [i * W + j].  Active lanes occupy columns 0..A-1; lanes retire
// from the tail (scenarios are sorted by descending t_stop, so the shortest
// runs sit at the end), while faulted lanes and lanes the measured-edge stop
// ends are removed by a stable left shift of the columns behind them (at
// most once per lane, O(n * k)), which preserves the descending order the
// tail scan relies on.
class BlockEngine {
public:
  BlockEngine(std::span<const BlockScenario> scenarios,
              const TransientOptions& options, std::span<const NodeId> probes,
              std::span<BlockOutcome> out)
      : opt_(options),
        nl0_(*scenarios[0].netlist),
        structure_(nl0_),
        m_(structure_.unknown_count()),
        solver_(detail::make_solver(structure_, options)),
        probes_(probes.begin(), probes.end()),
        out_(out) {
    // Resolve unknown indices once, exactly like the scalar engine.
    node_pos_.resize(nl0_.node_count(), npos);
    for (NodeId n = 1; n < nl0_.node_count(); ++n) {
      node_pos_[n] = structure_.node_index(n);
    }
    cap_pos_.reserve(nl0_.capacitors().size());
    for (const ckt::Capacitor& c : nl0_.capacitors()) {
      cap_pos_.push_back({c.a == ground ? npos : node_pos_[c.a],
                          c.b == ground ? npos : node_pos_[c.b]});
    }
    ind_pos_.resize(nl0_.inductors().size());
    ind_nodes_.reserve(nl0_.inductors().size());
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      ind_pos_[k] = structure_.inductor_index(k);
      const ckt::Inductor& l = nl0_.inductors()[k];
      ind_nodes_.push_back({l.a == ground ? npos : node_pos_[l.a],
                            l.b == ground ? npos : node_pos_[l.b]});
    }
    vsrc_pos_.resize(nl0_.vsources().size());
    for (std::size_t k = 0; k < nl0_.vsources().size(); ++k) {
      vsrc_pos_[k] = structure_.vsource_index(k);
    }
    probe_pos_.reserve(probes_.size());
    for (NodeId p : probes_) {
      probe_pos_.push_back(p == ground ? npos : node_pos_[p]);
    }
    const bool stop = options.edge_stop.enabled();
    if (stop) {
      watch_pos_.reserve(options.edge_stop.watch.size());
      for (NodeId n : options.edge_stop.watch) {
        ensure(n < nl0_.node_count(), "simulate: watched node out of range");
        watch_pos_.push_back(n == ground ? npos : node_pos_[n]);
      }
    }

    // Longest-running lanes first, stable so equal t_stops keep input order.
    std::vector<std::size_t> order(scenarios.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scenarios[a].t_stop > scenarios[b].t_stop;
    });
    for (std::size_t slot : order) {
      const BlockScenario& s = scenarios[slot];
      if (!(s.t_stop > 0.0)) {
        // The scalar engine's precondition, confined to this lane.
        try {
          ensure(false, "simulate: bad time range");
        } catch (...) {
          out_[slot].error = std::current_exception();
        }
        continue;
      }
      lane_slot_.push_back(slot);
      lane_net_.push_back(s.netlist);
      lane_tstop_.push_back(s.t_stop);
      lane_budget_.push_back(s.budget);
      results_.emplace_back(probes_,
                            static_cast<std::size_t>(s.t_stop / opt_.dt) + 2);
      if (stop) lane_watch_.emplace_back(options.edge_stop);
    }

    w_ = lane_slot_.size();
    xb_.assign(m_ * w_, 0.0);
    rhsb_.assign(m_ * w_, 0.0);
    cap_v_.assign(nl0_.capacitors().size() * w_, 0.0);
    cap_i_.assign(nl0_.capacitors().size() * w_, 0.0);
    ind_i_.assign(nl0_.inductors().size() * w_, 0.0);
    ind_v_.assign(nl0_.inductors().size() * w_, 0.0);
    probe_vals_.assign(probes_.size(), 0.0);
    lane_rhs_.assign(m_, 0.0);
  }

  void run() {
    std::size_t a = w_;
    if (a == 0) return;

    // Shared DC factor + one blocked solve seeds every lane's operating
    // point (sources at t = 0, capacitors open, inductors shorted).
    refactor(0.0);
    assemble_rhs_block(0.0, 0.0, a);
    solver_->solve_block(rhsb_, a, w_);
    std::swap(xb_, rhsb_);
    seed_state(a);
    record_active(0.0, a);
    retire_measured(a);

    const double dt = opt_.dt;
    double t = 0.0;
    std::int64_t step = 0;
    while (a > 0) {
      // Tail scan: finished lanes retire; lanes within one step of their
      // horizon take their shortened final step on the tail solver.
      while (a > 0) {
        const std::size_t j = a - 1;
        if (t >= lane_tstop_[j] - 1e-21) {
          finalize(j);
          --a;
          pop_lane();
          continue;
        }
        if (lane_tstop_[j] - t < dt) {
          partial_step(j, t, step);
          --a;
          pop_lane();
          continue;
        }
        break;
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
            --a;
            continue;
          }
        }
        ++j;
      }
      if (a == 0) break;

      if (factored_h_ != dt) refactor(dt);
      const double t_next = t + dt;
      assemble_rhs_block(t_next, dt, a);
      solver_->solve_block(rhsb_, a, w_);
      std::swap(xb_, rhsb_);

      ++step;
      if ((step & 63) == 0) {
        for (std::size_t j = 0; j < a;) {
          if (!lane_finite(j)) {
            fail_nonfinite(j);
            remove_lane(j, a);
            --a;
          } else {
            ++j;
          }
        }
        if (a == 0) break;
      }

      advance_state(dt, a);
      t = t_next;
      record_active(t, a);
      retire_measured(a);
    }
  }

private:
  struct Pair {
    std::size_t a;
    std::size_t b;
  };

  void refactor(double h) {
    solver_->clear();
    detail::assemble_static_stamps(*solver_, nl0_, structure_, h, opt_.gmin, opt_,
                                   /*cached_path=*/true);
    solver_->factor();
    factored_h_ = h;
  }

  // Blocked RHS assembly.  Device-outer, lane-inner: each lane's column
  // receives exactly the scalar assemble_rhs operation sequence (same
  // expression shapes, same order), so lane values are bitwise-identical to
  // a per-slot run.
  void assemble_rhs_block(double t, double h, std::size_t a) {
    std::fill(rhsb_.begin(), rhsb_.end(), 0.0);
    const bool dc = h <= 0.0;
    const bool trap = opt_.integrator == Integrator::trapezoidal;

    if (!dc) {
      for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
        const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
        const auto [pa, pb] = cap_pos_[k];
        const double* sv = &cap_v_[k * w_];
        const double* si = &cap_i_[k * w_];
        for (std::size_t j = 0; j < a; ++j) {
          const double ieq = geq * sv[j] + (trap ? si[j] : 0.0);
          if (pb != npos) rhsb_[pb * w_ + j] -= ieq;
          if (pa != npos) rhsb_[pa * w_ + j] += ieq;
        }
      }
    }

    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * nl0_.inductors()[k].inductance / h;
      const double* sv = &ind_v_[k * w_];
      const double* si = &ind_i_[k * w_];
      double* row = &rhsb_[ind_pos_[k] * w_];
      for (std::size_t j = 0; j < a; ++j) {
        row[j] = dc ? 0.0 : (trap ? -sv[j] - req * si[j] : -req * si[j]);
      }
    }

    if (!dc) {
      for (const ckt::MutualInductor& m : nl0_.mutual_inductors()) {
        const double req = (trap ? 2.0 : 1.0) * m.mutual / h;
        double* rowa = &rhsb_[ind_pos_[m.la] * w_];
        double* rowb = &rhsb_[ind_pos_[m.lb] * w_];
        const double* ia = &ind_i_[m.la * w_];
        const double* ib = &ind_i_[m.lb * w_];
        for (std::size_t j = 0; j < a; ++j) rowa[j] -= req * ib[j];
        for (std::size_t j = 0; j < a; ++j) rowb[j] -= req * ia[j];
      }
    }

    // The only lane-divergent input: each lane evaluates its own source
    // waveforms (the matrix never sees them).
    for (std::size_t k = 0; k < nl0_.vsources().size(); ++k) {
      double* row = &rhsb_[vsrc_pos_[k] * w_];
      for (std::size_t j = 0; j < a; ++j) {
        row[j] = lane_net_[j]->vsources()[k].voltage.value_at(t);
      }
    }
  }

  // Single-lane RHS for the shortened final step, same scalar sequence.
  void assemble_rhs_lane(double t, double h, std::size_t j) {
    std::fill(lane_rhs_.begin(), lane_rhs_.end(), 0.0);
    const bool dc = h <= 0.0;
    const bool trap = opt_.integrator == Integrator::trapezoidal;

    if (!dc) {
      for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
        const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
        const double ieq =
            geq * cap_v_[k * w_ + j] + (trap ? cap_i_[k * w_ + j] : 0.0);
        const auto [pa, pb] = cap_pos_[k];
        if (pb != npos) lane_rhs_[pb] -= ieq;
        if (pa != npos) lane_rhs_[pa] += ieq;
      }
    }
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * nl0_.inductors()[k].inductance / h;
      lane_rhs_[ind_pos_[k]] =
          dc ? 0.0
             : (trap ? -ind_v_[k * w_ + j] - req * ind_i_[k * w_ + j]
                     : -req * ind_i_[k * w_ + j]);
    }
    if (!dc) {
      for (const ckt::MutualInductor& m : nl0_.mutual_inductors()) {
        const double req = (trap ? 2.0 : 1.0) * m.mutual / h;
        lane_rhs_[ind_pos_[m.la]] -= req * ind_i_[m.lb * w_ + j];
        lane_rhs_[ind_pos_[m.lb]] -= req * ind_i_[m.la * w_ + j];
      }
    }
    for (std::size_t k = 0; k < nl0_.vsources().size(); ++k) {
      lane_rhs_[vsrc_pos_[k]] = lane_net_[j]->vsources()[k].voltage.value_at(t);
    }
  }

  void seed_state(std::size_t a) {
    for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
      const auto [pa, pb] = cap_pos_[k];
      double* sv = &cap_v_[k * w_];
      for (std::size_t j = 0; j < a; ++j) {
        const double va = pa == npos ? 0.0 : xb_[pa * w_ + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w_ + j];
        sv[j] = va - vb;
      }
    }
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      double* si = &ind_i_[k * w_];
      const double* row = &xb_[ind_pos_[k] * w_];
      for (std::size_t j = 0; j < a; ++j) si[j] = row[j];
    }
  }

  void advance_state(double h, std::size_t a) {
    const bool trap = opt_.integrator == Integrator::trapezoidal;
    for (std::size_t k = 0; k < nl0_.capacitors().size(); ++k) {
      const double geq = (trap ? 2.0 : 1.0) * nl0_.capacitors()[k].capacitance / h;
      const auto [pa, pb] = cap_pos_[k];
      double* sv = &cap_v_[k * w_];
      double* si = &cap_i_[k * w_];
      for (std::size_t j = 0; j < a; ++j) {
        const double va = pa == npos ? 0.0 : xb_[pa * w_ + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w_ + j];
        const double v_new = va - vb;
        const double i_new =
            trap ? geq * (v_new - sv[j]) - si[j] : geq * (v_new - sv[j]);
        sv[j] = v_new;
        si[j] = i_new;
      }
    }
    for (std::size_t k = 0; k < nl0_.inductors().size(); ++k) {
      const auto [pa, pb] = ind_nodes_[k];
      double* si = &ind_i_[k * w_];
      double* sv = &ind_v_[k * w_];
      const double* row = &xb_[ind_pos_[k] * w_];
      for (std::size_t j = 0; j < a; ++j) {
        si[j] = row[j];
        const double va = pa == npos ? 0.0 : xb_[pa * w_ + j];
        const double vb = pb == npos ? 0.0 : xb_[pb * w_ + j];
        sv[j] = va - vb;
      }
    }
  }

  void record_active(double t, std::size_t a) {
    for (std::size_t j = 0; j < a; ++j) {
      for (std::size_t p = 0; p < probe_pos_.size(); ++p) {
        probe_vals_[p] = probe_pos_[p] == npos ? 0.0 : xb_[probe_pos_[p] * w_ + j];
      }
      results_[j].record_probe_values(t, probe_vals_);
    }
  }

  // Measured-edge stop, decided per lane on the sample just recorded: a lane
  // whose watched nodes completed their edges ends exactly where the scalar
  // run would break out of its step loop (final finiteness guard included).
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
      --a;
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

  // Lane finished with a full step on the previous iteration: the scalar
  // loop would exit and run its final finiteness guard over the solution.
  void finalize(std::size_t j) {
    if (!lane_finite(j)) {
      fail_nonfinite(j);
      return;
    }
    out_[lane_slot_[j]].result = std::move(results_[j]);
  }

  // Shortened final step (h = t_stop - t < dt), run on a dedicated tail
  // solver: identical stamps + identical factorization algorithm produce
  // the factor the scalar engine's in-place refactor would, so the lane's
  // last sample is bitwise-identical too.
  void partial_step(std::size_t j, double t, std::int64_t step) {
    try {
      if (lane_budget_[j]) lane_budget_[j]->charge_transient_steps(1, "transient");
      const double h = lane_tstop_[j] - t;
      const double t_next = t + h;
      if (!tail_) tail_ = detail::make_solver(structure_, opt_);
      tail_->clear();
      detail::assemble_static_stamps(*tail_, nl0_, structure_, h, opt_.gmin, opt_,
                                     /*cached_path=*/true);
      tail_->factor();
      assemble_rhs_lane(t_next, h, j);
      tail_->solve_into(lane_rhs_);
      const bool finite = [&] {
        for (double v : lane_rhs_) {
          if (!std::isfinite(v)) return false;
        }
        return true;
      }();
      // Periodic guard at this lane's step count, then the final guard —
      // both collapse to the same verdict on the final solution.
      if (((step + 1) & 63) == 0 && !finite) {
        fail_nonfinite(j);
        return;
      }
      for (std::size_t p = 0; p < probe_pos_.size(); ++p) {
        probe_vals_[p] =
            probe_pos_[p] == npos ? 0.0 : lane_rhs_[probe_pos_[p]];
      }
      results_[j].record_probe_values(t_next, probe_vals_);
      if (!finite) {
        fail_nonfinite(j);
        return;
      }
      out_[lane_slot_[j]].result = std::move(results_[j]);
    } catch (...) {
      out_[lane_slot_[j]].error = std::current_exception();
    }
  }

  void pop_lane() {
    lane_slot_.pop_back();
    lane_net_.pop_back();
    lane_tstop_.pop_back();
    lane_budget_.pop_back();
    results_.pop_back();
    if (!lane_watch_.empty()) lane_watch_.pop_back();
  }

  // Stable removal of a faulted or measured mid-array lane: shift the
  // columns behind it left so the descending-t_stop order (and every lane's
  // column index) stays consistent.  At most once per lane, so the O(n * k)
  // copy stays small next to the lane's steps.
  void remove_lane(std::size_t j, std::size_t a) {
    auto shift = [&](std::vector<double>& arr, std::size_t rows) {
      for (std::size_t i = 0; i < rows; ++i) {
        double* row = &arr[i * w_];
        for (std::size_t c = j; c + 1 < a; ++c) row[c] = row[c + 1];
      }
    };
    shift(xb_, m_);
    shift(cap_v_, nl0_.capacitors().size());
    shift(cap_i_, nl0_.capacitors().size());
    shift(ind_i_, nl0_.inductors().size());
    shift(ind_v_, nl0_.inductors().size());
    lane_slot_.erase(lane_slot_.begin() + static_cast<std::ptrdiff_t>(j));
    lane_net_.erase(lane_net_.begin() + static_cast<std::ptrdiff_t>(j));
    lane_tstop_.erase(lane_tstop_.begin() + static_cast<std::ptrdiff_t>(j));
    lane_budget_.erase(lane_budget_.begin() + static_cast<std::ptrdiff_t>(j));
    results_.erase(results_.begin() + static_cast<std::ptrdiff_t>(j));
    if (!lane_watch_.empty()) {
      lane_watch_.erase(lane_watch_.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }

  const TransientOptions& opt_;
  const Netlist& nl0_;
  MnaStructure structure_;
  std::size_t m_;
  std::unique_ptr<detail::LinearSolver> solver_;
  std::unique_ptr<detail::LinearSolver> tail_;
  std::vector<NodeId> probes_;
  std::span<BlockOutcome> out_;

  std::vector<std::size_t> node_pos_;
  std::vector<Pair> cap_pos_;
  std::vector<std::size_t> ind_pos_;
  std::vector<Pair> ind_nodes_;
  std::vector<std::size_t> vsrc_pos_;
  std::vector<std::size_t> probe_pos_;
  std::vector<std::size_t> watch_pos_;  // measured-edge stop nodes (npos = ground)

  // Active-lane bookkeeping, sorted by descending t_stop.
  std::vector<std::size_t> lane_slot_;
  std::vector<const Netlist*> lane_net_;
  std::vector<double> lane_tstop_;
  std::vector<util::ExecTracker*> lane_budget_;
  std::vector<TransientResult> results_;
  std::vector<detail::EdgeWatch> lane_watch_;  // empty when the stop is off

  // SoA blocks with fixed stride w_ (lane j of row i at [i * w_ + j]).
  std::size_t w_ = 0;
  std::vector<double> xb_;
  std::vector<double> rhsb_;
  std::vector<double> cap_v_;
  std::vector<double> cap_i_;
  std::vector<double> ind_i_;
  std::vector<double> ind_v_;
  std::vector<double> probe_vals_;
  std::vector<double> lane_rhs_;

  double factored_h_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace

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
  BlockEngine engine(scenarios, options, probes, out);
  engine.run();
  return out;
}

}  // namespace rlceff::sim
