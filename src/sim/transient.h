// Transient circuit simulation (the reproduction's HSPICE substitute).
//
// Fixed-step MNA integration with trapezoidal companion models on the
// reduced system of ckt::MnaStructure (series R-L pairs folded into companion
// branches, source-held nodes on the right-hand side), Newton-Raphson for the
// MOSFET driver, and a DC operating point with gmin stepping (1e-12 S from
// every unknown node to ground).  The Jacobian is factored by one of three
// interchangeable backends (SolverKind): a banded LU after reverse
// Cuthill-McKee ordering (discretized lines are nearly tridiagonal), a
// compressed-sparse LU with fill-reducing ordering for large trees and wide
// coupled buses, or the dense LU for small/pathological systems — selected
// automatically per netlist (selected_solver) unless overridden.
#ifndef RLCEFF_SIM_TRANSIENT_H
#define RLCEFF_SIM_TRANSIENT_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/netlist.h"
#include "util/budget.h"
#include "waveform/waveform.h"

namespace rlceff::sim {

// The linear-solver backend behind the MNA factorization.  `automatic` (the
// default everywhere) resolves per netlist via selected_solver(): banded when
// RCM leaves a narrow band, sparse when the system is large and its
// fill-reducing LU is estimated cheaper than a dense factor, dense otherwise.
// All three backends implement the same factor-once static-image contract,
// agree to LU roundoff (~1e-10 on waveforms), and are individually
// deterministic.
enum class SolverKind { automatic, dense, banded, sparse };

const char* to_string(SolverKind kind);

// Parses "auto" / "dense" / "banded" / "sparse"; throws Error otherwise.
SolverKind solver_kind_from_string(std::string_view name);

// MNA assembly strategy.
//
// `cached` splits assembly into a static image (topology, linear device
// stamps, and companion conductances — functions of the step size only) and
// per-step dynamics (RHS sources, companion currents, MOSFET linearization).
// Linear circuits factor the static matrix once per step size and do a pure
// substitution per step; nonlinear circuits restore the static image by
// memcpy each Newton iteration and restamp only the MOSFET entries.  Both
// paths produce bitwise-identical stamp sequences to `naive`, which rebuilds
// and refactors the full Jacobian every iteration and is kept as the
// reference for equivalence tests and the factor-once speedup benchmark.
enum class AssemblyMode { cached, naive };

// Measured-edge stop, for callers that only measure rising edges with
// wave::measure_rising_edge over [0, vdd] (delay and 10-90 % slew).  The run
// ends after the first sample at which every watched node has made its first
// rising crossing of the 10, 50 and 90 % levels, tested with the exact
// Waveform::first_crossing predicate (wave::crosses) on the levels
// wave::rising_edge_levels(0, vdd) gives.  Every sample up to the stop comes
// from the unchanged step sequence, so the stopped waveforms are prefixes of
// the full-horizon ones and every such measurement on them is bitwise
// identical; a node that never completes its edge keeps the run going to
// t_stop.  Off unless vdd > 0 and `watch` is non-empty.  Callers that keep
// waveforms, or measure anything past the edge (a noise peak, a settled
// value), leave it off.
struct EdgeStop {
  double vdd = 0.0;                 // rail of the measured edge [V]
  std::vector<ckt::NodeId> watch;   // nodes whose rising edge is measured

  bool enabled() const { return vdd > 0.0 && !watch.empty(); }
};

struct TransientOptions {
  double t_stop = 1e-9;     // simulation end time [s]
  double dt = 0.1e-12;      // fixed time step [s]
  // Cooperative execution budget (see util/budget.h): when set, the step
  // loop charges every accepted time step against max_transient_steps and
  // every step/Newton iteration checkpoints the deadline and cancel token,
  // raising DeadlineError/BudgetError promptly instead of running the
  // horizon out.  Null (default) costs one branch per checkpoint.
  util::ExecTracker* budget = nullptr;
  AssemblyMode assembly = AssemblyMode::cached;
  // Linear-solver override: `automatic` applies the selection heuristic (see
  // selected_solver); any other value forces that backend.
  SolverKind solver = SolverKind::automatic;
  // Ends the run at the watched nodes' last measured crossing (see EdgeStop).
  // Charged steps stop with it, so a budget meters only the steps run.
  EdgeStop edge_stop;
  // Fault-injection hooks for the property/chaos harnesses (testkit/faults.h
  // generalizes these into keyed per-slot fault plans).  Never set outside
  // tests.
  //   debug_cached_stamp_skew scales every capacitor's companion conductance
  //   by (1 + skew) in the *cached* assembly path only, so any nonzero value
  //   breaks the cached==naive contract and must be caught by the
  //   equivalence oracles.
  //   debug_cached_stamp_nan poisons with NaN the cached-path stamp of the
  //   first capacitor that stamps the matrix (one whose terminals are all
  //   ground or source-held nodes stamps nothing); the chaos oracles prove
  //   the simulator surfaces this as a classified failure (the non-finite
  //   solution guard below) instead of a hang or a silently-NaN waveform.
  double debug_cached_stamp_skew = 0.0;
  bool debug_cached_stamp_nan = false;
};

// Simulation output: one sampled waveform per probed node, and the backend
// that factored the run.
class TransientResult {
public:
  TransientResult(std::vector<ckt::NodeId> probes, std::size_t reserve_steps,
                  SolverKind solver);

  const std::vector<ckt::NodeId>& probes() const { return probes_; }
  const wave::Waveform& at(ckt::NodeId node) const;

  // The backend the run factored with: selected_solver's answer for the
  // deck, known without rebuilding the MNA structure.  Never automatic.
  SolverKind solver() const { return solver_; }

  // Columns the run's last factorization factored: every unknown on a full
  // factorization, only the columns from the first MOSFET terminal on when
  // a cached Newton iteration refactors its dynamic tail, 0 when the deck
  // has no unknowns.  A work count, the same on every host.
  std::size_t factored_columns() const { return factored_columns_; }

  // Newton iterations over the whole run, its DC operating point's
  // included, and the MOSFET gate-term evaluations among them: an on device
  // whose forward overdrive repeats its last one bit for bit reuses its gate
  // terms under cached assembly.  Both 0 on a linear deck under cached
  // assembly, which solves without Newton.  Work counts, the same on every
  // host.
  std::uint64_t newton_iterations() const { return newton_iterations_; }
  std::uint64_t gate_evaluations() const { return gate_evaluations_; }

  void set_work(std::size_t factored_columns, std::uint64_t newton_iterations,
                std::uint64_t gate_evaluations) {
    factored_columns_ = factored_columns;
    newton_iterations_ = newton_iterations;
    gate_evaluations_ = gate_evaluations;
  }

  // Appends one sample: `per_probe` holds one value per probes() entry, in
  // probe order.
  void record_probe_values(double time, std::span<const double> per_probe);

private:
  std::vector<ckt::NodeId> probes_;
  std::vector<wave::Waveform> waves_;
  SolverKind solver_;
  std::size_t factored_columns_ = 0;
  std::uint64_t newton_iterations_ = 0;
  std::uint64_t gate_evaluations_ = 0;
};

// DC operating point: node voltages indexed by NodeId (ground included as
// 0).  A node the reduced system folds away reads its branch's inductor end.
struct OperatingPoint {
  std::vector<double> node_voltage;
};

// The backend simulate() will factor this netlist with: the explicit
// override when `options.solver` is not automatic, otherwise the heuristic —
// banded while RCM keeps the band narrow, else sparse when the unknown count
// is large enough that the estimated sparse LU work beats the dense factor,
// else dense.  Never returns SolverKind::automatic.  It sees the watched
// nodes of options.edge_stop but no probes, so a probe on a node the
// reduction would fold (which keeps it) can make a run's system larger than
// the one judged here.
SolverKind selected_solver(const ckt::Netlist& netlist,
                           const TransientOptions& options = {});

// Solves the DC operating point at t = 0 (sources at their t = 0 values,
// capacitors open, inductors shorted).
OperatingPoint dc_operating_point(const ckt::Netlist& netlist,
                                  const TransientOptions& options = {});

// Runs a transient from the DC operating point, recording the probed nodes,
// to options.t_stop or to the measured-edge stop (options.edge_stop).  This
// is the one-lane instance of the stepper simulate_block runs
// (sim/scenario_block.h): the same RHS assembly, state advance, recording
// and guards, with the lane count fixed at one at compile time.
TransientResult simulate(const ckt::Netlist& netlist, const TransientOptions& options,
                         std::span<const ckt::NodeId> probes);

}  // namespace rlceff::sim

#endif  // RLCEFF_SIM_TRANSIENT_H
