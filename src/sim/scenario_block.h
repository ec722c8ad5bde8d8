// Scenario batching by superposition.
//
// A characterization sweep runs the same linear replay deck hundreds of
// times with only the source waveform (slew) and stop time changing.  Such a
// deck is linear in its one source, so simulate_block() steps the shared
// matrix once per time step for the whole group, as the basis response to a
// unit step on that source, and takes every scenario's samples as weighted
// sums over that response (see sim::simulate).
//
// Bitwise contract: one basis, one superposition.  simulate_block and
// sim::simulate run the same code on a superposable deck, and each sample is
// a fixed-order function of the basis prefix and the lane's own source, so
// batched waveforms are bitwise-identical to per-slot waveforms by
// construction; the equivalence and property suites assert that across all
// three backends.  A group of any other deck runs sim::simulate per lane.
//
// Grouping safety: callers decide which scenarios may share a factorization
// with scenario_group_hash() (a cheap bucket key) confirmed by
// scenario_group_equal() + scenario_options_equal() (exhaustive bit-level
// compares).  Two recipes differing by one ULP in a single element value or
// by one topology edge hash differently *and* fail the confirm, so
// near-identical scenarios can never alias into one matrix.
//
// Isolation: each lane may carry its own ExecTracker.  A lane that faults
// (budget exhausted, non-finite solution) is retired with its error
// captured in its BlockOutcome; the remaining lanes continue unperturbed
// and still produce bitwise-identical results — a faulted scenario never
// poisons its group-mates.
#ifndef RLCEFF_SIM_SCENARIO_BLOCK_H
#define RLCEFF_SIM_SCENARIO_BLOCK_H

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <vector>

#include "circuit/netlist.h"
#include "sim/transient.h"
#include "util/budget.h"

namespace rlceff::sim {

// One scenario lane of a block.  The netlist must be scenario_group_equal
// to every other lane's netlist (same topology and element values; only the
// voltage-source *waveforms* may differ).  The optional tracker is charged
// one transient step per accepted step, exactly like TransientOptions::
// budget in sim::simulate, but failures are confined to this lane.
struct BlockScenario {
  const ckt::Netlist* netlist = nullptr;
  double t_stop = 0.0;
  util::ExecTracker* budget = nullptr;
};

// Per-lane outcome: exactly one of `result` / `error` is set.  The error is
// whatever sim::simulate would have thrown for that scenario alone
// (BudgetError, DeadlineError, SingularMatrixError, ...).
struct BlockOutcome {
  std::optional<TransientResult> result;
  std::exception_ptr error;
};

// Bucket key for grouping: hashes the netlist topology and element values
// (every double at full bit precision) and the matrix-shaping simulation
// options (dt, solver, assembly, debug hooks — not t_stop, not the budget)
// — everything the factored matrix depends on, nothing the RHS alone
// depends on (source waveforms are excluded).
std::uint64_t scenario_group_hash(const ckt::Netlist& netlist,
                                  const TransientOptions& options);

// Exhaustive confirm behind the hash: true iff the two netlists produce
// bit-identical MNA matrices at every step size — same node count, same
// device lists with bit-equal values (so a one-ULP perturbation never
// aliases), same source incidence (waveforms ignored).  Netlists with
// MOSFETs never group (nonlinear stamps depend on the per-lane solution).
bool scenario_group_equal(const ckt::Netlist& a, const ckt::Netlist& b);

// Option-side confirm: true iff every matrix- or sequence-shaping field
// matches bitwise, the measured-edge stop included (t_stop and budget
// excluded — those are per-lane).
bool scenario_options_equal(const TransientOptions& a, const TransientOptions& b);

// Runs every scenario from its DC operating point to its own t_stop from one
// superposition basis, recording `probes` (shared by the group; node ids are
// identical across group-equal netlists).  With
// options.edge_stop on, each lane also ends at its own measured-edge stop,
// at the sample where sim::simulate would stop it alone.
//
// Requirements (ensure-checked): at least dt > 0, cached assembly, no
// shared options.budget (use per-lane trackers), linear netlists, and every
// lane scenario_group_equal to the first.  A failure of the *shared*
// machinery (e.g. a singular group matrix) throws out of this function;
// per-lane failures come back in the lane's BlockOutcome.
std::vector<BlockOutcome> simulate_block(std::span<const BlockScenario> scenarios,
                                         const TransientOptions& options,
                                         std::span<const ckt::NodeId> probes);

}  // namespace rlceff::sim

#endif  // RLCEFF_SIM_SCENARIO_BLOCK_H
