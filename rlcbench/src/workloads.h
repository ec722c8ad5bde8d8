// The three benchmark workloads, generated from a seed.
//
//   bulk_fastest   — tens of thousands of distinct testkit::random_request
//                    nets (single nets plus ~25 % coupled groups, six cell
//                    sizes) under TierPolicy::fastest, degrade on, structural
//                    lint screen on: the production static-timing common case.
//   fleet_balanced — the 256-net reference fleet (randomized_fleet's stream)
//                    under TierPolicy::balanced, degrade on: the escalation
//                    tail.  Four of its nets do not converge at Tier B and
//                    escalate to Tier-C transients; the seed shuffles the
//                    slot order only (see workloads.cpp for why).
//   fig7_replay    — the paper's wire cases x receiver loads x input slews as
//                    model-only far-end replays with scenario batching on.
//
// Each workload also carries a fixed, seed-independent accuracy-audit set
// (served under the workload's own policy and compared with
// TierPolicy::force_reference at the workload's deck fidelity).
#ifndef RLCBENCH_WORKLOADS_H
#define RLCBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/request.h"

namespace rlcbench {

namespace api = rlceff::api;
namespace charlib = rlceff::charlib;

enum class Kind { bulk_fastest, fleet_balanced, fig7_replay };

bool parse_kind(const std::string& text, Kind& out);
const char* to_string(Kind kind);

struct Workload {
  Kind kind = Kind::bulk_fastest;
  std::vector<double> cell_sizes;  // every driver size the inputs use
  api::BatchOptions options;       // the timed batches: one worker
  std::vector<api::Request> batch;  // one closed-loop run_batch call
  std::vector<api::Request> warmup;  // run once before timing
  std::vector<api::Request> audit;  // fixed accuracy-audit requests
  // fig7_replay: the batch indices of each equal-topology group.
  std::vector<std::vector<std::size_t>> groups;
};

// The characterization grid setup uses: the standard grid on one worker.
charlib::CharacterizationGrid one_worker_grid();

// Driver sizes of a workload (what setup characterizes).
std::vector<double> cell_sizes(Kind kind);

// Generates the workload's inputs; `smoke` shrinks every size for tests.
Workload make_workload(Kind kind, std::uint64_t seed, bool smoke);

// The transient-reference twin of an audit request.
api::Request reference_twin(const api::Request& served);

}  // namespace rlcbench

#endif  // RLCBENCH_WORKLOADS_H
