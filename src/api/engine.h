// api::Engine — the batch-first, failure-isolating facade over the stack,
// and the one supported way into the library.
//
// The Engine owns a tech::Technology and a thread-safe charlib::CellLibrary
// and exposes the paper's flow as a service: Request in, Outcome<Response>
// out.  model() evaluates one net; run_batch() pre-characterizes the batch's
// distinct cell sizes once, then fans the scenarios out across the sweep
// pool with per-slot exception capture, so a non-convergent Ceff iteration
// (or an invalid net) marks one slot failed instead of aborting the batch.
//
// The boundary contract: everything below the Engine throws (util/error.h);
// everything above it branches on Outcome.  model()/run_batch() never throw
// for per-scenario failures.  run_batch() itself only throws for batch-level
// breakage (e.g. the characterization grid itself is unusable — and even
// then the error is re-raised per affected slot, see engine.cpp).
#ifndef RLCEFF_API_ENGINE_H
#define RLCEFF_API_ENGINE_H

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "api/outcome.h"
#include "api/request.h"
#include "charlib/library.h"
#include "tech/technology.h"

namespace rlceff::tier {
struct AnalyticalEstimate;
}

namespace rlceff::api {

class Engine {
public:
  explicit Engine(tech::Technology technology = tech::Technology::cmos180());

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const tech::Technology& technology() const { return technology_; }

  // The engine's cell cache.  Thread-safe; driver references obtained from
  // it stay valid for the engine's lifetime.
  charlib::CellLibrary& library() { return library_; }
  const charlib::CellLibrary& library() const { return library_; }

  // Evaluates one request.  Per-scenario failures come back as failed
  // Outcomes, never as exceptions.
  Outcome<Response> model(const Request& request, const BatchOptions& options = {});

  // Evaluates a batch; results[i] always corresponds to requests[i].
  std::vector<Outcome<Response>> run_batch(std::span<const Request> requests,
                                           const BatchOptions& options = {});

  // Characterizes any missing cell sizes up front (different sizes in
  // parallel) so later model()/run_batch() calls are pure table lookups.
  void warm_cache(std::span<const double> cell_sizes,
                  const charlib::CharacterizationGrid& grid =
                      charlib::CharacterizationGrid::standard(),
                  unsigned n_threads = 0);
  void warm_cache(std::initializer_list<double> cell_sizes,
                  const charlib::CharacterizationGrid& grid =
                      charlib::CharacterizationGrid::standard(),
                  unsigned n_threads = 0);

  // Cache persistence: merge a saved library into this engine (returns
  // false when the file does not exist) / write the current cache out, so
  // repeated invocations skip re-characterization.
  bool load_library(const std::string& path);
  void save_library(const std::string& path) const;

private:
  // Where one pass down the ladder stands: the rung it is on and the
  // escalations it took to get there.  Updated as the pass climbs, so both
  // survive a rung that throws (the attempt trail names that rung).
  struct Climb {
    Fidelity rung = Fidelity::ceff_model;
    std::size_t escalations = 0;
  };

  // The slot pipeline.  Arms `tracker` (the caller's) with the request's
  // budget, admits the request once (validation, lint screen, budget
  // checkpoint, fault hook), makes one pass down its rungs, then degrades
  // per Request::degrade.  Degraded answers keep the pass's escalation
  // count.  A far_end_replay slot replays its answer inline unless
  // `defer_replay`: then run_batch replays it after the sweep, grouped into
  // shared-factorization blocks (same results, bitwise), charging the same
  // tracker.  Never throws for per-scenario failures.
  Outcome<Response> run_slot(const Request& request, const BatchOptions& options,
                             std::size_t slot, util::ExecTracker& tracker,
                             bool defer_replay);
  // One pass down the rungs of the request's policy (tier::route): Tier A
  // first under balanced and fastest, Tier B when it refuses, and under
  // balanced one ungated Tier-C experiment when Tier B does not converge
  // within its cap; the forced policies and TierPolicy::reference go
  // straight to their rung.  `budget` (nullable) is threaded into every
  // solver loop.
  Response dispatch(const Request& request, const BatchOptions& options,
                    util::ExecTracker* budget, Climb& climb);

  // The rungs.  Each stamps its own fidelity and tier; a coupled request is
  // served on its (Miller-decoupled) victim.
  //
  // Tier A: the closed-form analytical screen (tier/analytical.h) — the
  // 5-moment fast walk, the Eq 3 fit and a secant Ceff fixed point on the
  // cell tables at a loose tolerance, no transient.  The caller first
  // estimates the served net alone (`served`, the decoupled victim for a
  // coupled request), because that is all admission reads: the dispatch
  // scores it before building anything, so a refused slot costs one
  // estimate.  The answer is built around `served`, whose model is moved
  // into the returned Response; a coupled victim adds its quiet-net pushout
  // and noise bound.
  Response analytical_response(const Request& request,
                               const charlib::CharacterizedDriver& driver,
                               tier::AnalyticalEstimate& served);
  // Tier B (the paper's Ceff flow) and Tier C (the transient reference
  // experiment, with the Ceff model beside it), on the request's Ceff
  // options.  `budget` (nullable) is threaded into the fixed points and into
  // the transient loops; with `gate` on, a non-converged fixed point fails
  // the rung as convergence_failure.
  Response ceff_response(const Request& request, const BatchOptions& options, bool gate,
                         util::ExecTracker* budget);
  Response reference_response(const Request& request, const BatchOptions& options,
                              bool gate, util::ExecTracker* budget);
  // The degraded floor: core::estimate_driver_output_moments_only.  Stamped
  // tier::Tier::ceff, since the tier enum has no floor rung yet.
  Response moments_only_response(const Request& request, const BatchOptions& options);
  // Distinct cell sizes from `sizes` not yet in the library.
  std::vector<double> collect_missing(std::span<const double> sizes) const;

  tech::Technology technology_;
  charlib::CellLibrary library_;
};

}  // namespace rlceff::api

#endif  // RLCEFF_API_ENGINE_H
