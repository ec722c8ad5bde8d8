// Transient circuit simulation (the reproduction's HSPICE substitute).
//
// Fixed-step MNA integration with trapezoidal (default) or backward-Euler
// companion models, Newton-Raphson for the MOSFET driver, and a DC operating
// point with gmin stepping.  The Jacobian is factored by one of three
// interchangeable backends (SolverKind): a banded LU after reverse
// Cuthill-McKee ordering (discretized lines are nearly tridiagonal), a
// compressed-sparse LU with fill-reducing ordering for large trees and wide
// coupled buses, or the dense LU for small/pathological systems — selected
// automatically per netlist (selected_solver) unless overridden.
#ifndef RLCEFF_SIM_TRANSIENT_H
#define RLCEFF_SIM_TRANSIENT_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/netlist.h"
#include "util/budget.h"
#include "waveform/waveform.h"

namespace rlceff::sim {

enum class Integrator { trapezoidal, backward_euler };

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
  Integrator integrator = Integrator::trapezoidal;
  double gmin = 1e-12;      // conductance to ground at every node [S]
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
  //   debug_cached_stamp_nan poisons the first capacitor's cached-path stamp
  //   with NaN; the chaos oracles prove the simulator surfaces this as a
  //   classified failure (the non-finite solution guard below) instead of a
  //   hang or a silently-NaN waveform.
  double debug_cached_stamp_skew = 0.0;
  bool debug_cached_stamp_nan = false;
};

// Simulation output: one sampled waveform per probed node.
class TransientResult {
public:
  TransientResult(std::vector<ckt::NodeId> probes, std::size_t reserve_steps);

  const std::vector<ckt::NodeId>& probes() const { return probes_; }
  const wave::Waveform& at(ckt::NodeId node) const;

  // Appends one sample: `per_probe` holds one value per probes() entry, in
  // probe order.
  void record_probe_values(double time, std::span<const double> per_probe);

private:
  std::vector<ckt::NodeId> probes_;
  std::vector<wave::Waveform> waves_;
};

// DC operating point: node voltages indexed by NodeId (ground included as 0)
// plus inductor branch currents in netlist order.
struct OperatingPoint {
  std::vector<double> node_voltage;
  std::vector<double> inductor_current;
  std::vector<double> vsource_current;
};

// The backend simulate() will factor this netlist with: the explicit
// override when `options.solver` is not automatic, otherwise the heuristic —
// banded while RCM keeps the band narrow, else sparse when the unknown count
// is large enough that the estimated sparse LU work beats the dense factor,
// else dense.  Never returns SolverKind::automatic.
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
