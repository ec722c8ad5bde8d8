// Effective capacitance computations (Sec. 4 of the paper).
//
// Each effective capacitance equates the charge a lone capacitor would take
// over a transition window with the charge the 5-moment RLC admittance takes
// over the same window:
//
//   Ceff1: window [0, f*Tr1] of the first ramp (Eq 4 / Eq 5),
//   Ceff2: window [f*Tr1, f*Tr1 + (1-f)*Tr2] of the second ramp (Eq 6 / Eq 7),
//   Ceff (single, Sec. 5): the first-ramp equation with f = 1.
//
// ceff_first_ramp / ceff_second_ramp use the unified residue implementation
// (ChargeModel), which covers real poles, complex poles, and degenerate
// lower-order fits in one code path.  ceff_first_ramp_eq4 and
// ceff_second_ramp_eq6 are the paper's printed real-pole closed forms,
// retained verbatim for cross-validation; tests prove all paths agree and
// also match adaptive numerical quadrature of the time-domain current.
//
// The iterate_* helpers run the Sec. 4 fixed-point loop against a cell
// table: Ceff -> (table) ramp time Tr -> Ceff ... starting from the total
// capacitance.  All four windows (Ceff1, Ceff2, the single Ceff and the
// three-ramp extension's Ceff3) share one loop, util::fixed_point, so a
// change of solver lands in one place.
#ifndef RLCEFF_CORE_CEFF_H
#define RLCEFF_CORE_CEFF_H

#include <functional>

#include "core/charge.h"
#include "moments/rational.h"
#include "util/budget.h"

namespace rlceff::core {

// Eq 4/5: Ceff of the first ramp (voltage breakpoint fraction f in (0, 1]).
double ceff_first_ramp(const ChargeModel& load, double f, double tr1);

// Eq 6/7: Ceff of the second ramp.
double ceff_second_ramp(const ChargeModel& load, double f, double tr1, double tr2);

// Sec. 5: single effective capacitance over the whole transition (f = 1).
double ceff_single(const ChargeModel& load, double tr);

// The paper's Eq 4 closed form; requires two real poles.
double ceff_first_ramp_eq4(const moments::RationalAdmittance& y, double f, double tr1);

// The paper's Eq 6 closed form; requires two real poles.
double ceff_second_ramp_eq6(const moments::RationalAdmittance& y, double f,
                            double tr1, double tr2);

// Quadrature references (adaptive Simpson on the closed-form current).
double ceff_first_ramp_numeric(const ChargeModel& load, double f, double tr1);
double ceff_second_ramp_numeric(const ChargeModel& load, double f, double tr1,
                                double tr2);

// Result of a Ceff <-> cell-table fixed-point iteration.
struct CeffIteration {
  double ceff = 0.0;       // converged effective capacitance [F]
  double ramp_time = 0.0;  // table ramp time at ceff [s]
  int iterations = 0;
  bool converged = false;
};

// The fixed point runs at most max_iter iterations.  Running out returns
// converged = false for the service boundary (api::Engine's convergence
// gate) to judge.  `budget` is checkpointed every iteration (deadline and
// cancellation, util/budget.h).
struct CeffIterationOptions {
  double rel_tol = 1e-6;
  int max_iter = util::iter_defaults::ceff;
  double damping = 1.0;
  util::ExecTracker* budget = nullptr;  // optional cooperative budget
};

// Maps a load capacitance to the driver's ramp-equivalent output transition
// (a cell-table lookup bound to one input slew).
using TransitionFn = std::function<double(double c_load)>;

// Sec. 4.1: iterate Ceff1 from Ceff = Ctotal.
CeffIteration iterate_ceff1(const ChargeModel& load, double f,
                            const TransitionFn& transition,
                            const CeffIterationOptions& options = {});

// Sec. 4.2: iterate Ceff2 (tr1 fixed from the Ceff1 iteration).
CeffIteration iterate_ceff2(const ChargeModel& load, double f, double tr1,
                            const TransitionFn& transition,
                            const CeffIterationOptions& options = {});

// Sec. 5: iterate the single Ceff (f = 1).
CeffIteration iterate_ceff_single(const ChargeModel& load,
                                  const TransitionFn& transition,
                                  const CeffIterationOptions& options = {});

// Ablation A3: iterate the third-ramp Ceff over the window
// [t_begin, t_begin + (1 - f2) * Tr3] of the extended ramp through
// (t_begin, f2 * Vdd).  Unlike the other windows the iterate is clamped to
// Ctotal.
CeffIteration iterate_ceff3(const ChargeModel& load, double f2, double t_begin,
                            const TransitionFn& transition,
                            const CeffIterationOptions& options = {});

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_CEFF_H
