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

// Deferred-replay staging area for one run_batch call (defined in
// engine.cpp): far_end_replay slots enqueue their compiled replay here
// instead of simulating inline; finalize_deferred() then groups
// equal-topology jobs and runs each group as one shared-factorization
// multi-RHS block (sim/scenario_block.h).
struct ReplayCollector;

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
  // One attempt at the request as written.  `budget` (nullable) is threaded
  // into every solver loop; `run_hook` gates the test-only fault hook so
  // retry/fallback attempts skip it.  `collector` (nullable) lets a
  // far_end_replay slot defer its replay transient for group batching;
  // without one the replay runs inline (same results, bitwise).
  // `escalations` (nullable) receives the cascade's escalation count as it
  // climbs, so it survives an attempt that throws.
  Response model_or_throw(const Request& request, const BatchOptions& options,
                          util::ExecTracker* budget, std::size_t slot,
                          bool run_hook, ReplayCollector* collector = nullptr,
                          std::size_t* escalations = nullptr);
  // The full per-slot policy: arm the budget, attempt, then retry-and-
  // degrade per Request::degrade.  Retried and floor answers keep the
  // primary attempt's escalation count.  Never throws for per-scenario
  // failures.
  Outcome<Response> run_slot(const Request& request, const BatchOptions& options,
                             std::size_t slot,
                             ReplayCollector* collector = nullptr);
  // Runs the collector's deferred replays as shared-factorization blocks
  // (one factor per equal-topology group and step size) and patches the
  // affected slots of `results` — model_far and friends on success, a failed
  // Outcome for lanes whose replay faulted.  Group machinery failures fall
  // back to per-lane scalar replays before failing anything.
  void finalize_deferred(ReplayCollector& collector, const BatchOptions& options,
                         std::vector<Outcome<Response>>& results);
  // The moments_only floor tier (core::estimate_driver_output_moments_only
  // on the request's — possibly Miller-decoupled — net).
  Response moments_only_response(const Request& request, const BatchOptions& options);
  // The multi-fidelity cascade (Request::tier != TierPolicy::reference):
  // routes the slot to Tier A/B/C per tier/router.h, escalating on admission
  // failure (and, under balanced, on a Tier B convergence failure, to one
  // ungated Tier-C experiment that answers from its simulated edges).
  // Called from model_or_throw after validation/lint/budget arming so every
  // tier shares the same preamble.  `escalations` counts the escalations
  // taken so far, also when a tier throws.
  Response tiered_response(const Request& request, const BatchOptions& options,
                           util::ExecTracker* budget, std::size_t slot,
                           std::size_t& escalations);
  // Tier A: the closed-form analytical screen (tier/analytical.h) —
  // table lookups only, no fixed point, no transient.  `estimate_out`
  // (nullable) receives the raw estimate so the router can score admission
  // without recomputing it.  Its model.waveform is moved into the returned
  // Response (left empty in the estimate); every scalar admission input
  // (criteria, ceff1/ceff2, kind, shielding) stays valid.
  Response analytical_response(const Request& request, const BatchOptions& options,
                               tier::AnalyticalEstimate* estimate_out = nullptr);
  // Distinct cell sizes from `sizes` not yet in the library.
  std::vector<double> collect_missing(std::span<const double> sizes) const;

  tech::Technology technology_;
  charlib::CellLibrary library_;
};

}  // namespace rlceff::api

#endif  // RLCEFF_API_ENGINE_H
