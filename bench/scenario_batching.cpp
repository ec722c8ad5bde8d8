// Shared-factorization scenario batching: the Fig-7-style sweep grid (4
// wire/load topologies x 49 input slews = 196 scenarios) evaluated through
// api::Engine::run_batch as model-only far-end replays, batched vs per-slot.
//
// With batching on, the engine groups the 49 equal-topology replays of each
// wire case, factors the companion matrix once per group, and advances all
// lanes per step as one blocked multi-RHS solve; with batching off every
// slot runs its own scalar replay.  Both paths must produce bitwise-
// identical far-end waveforms — the bench verifies that on every slot and
// fails loudly on the first mismatch, so the speedup number can never be
// bought with accuracy.
//
// Pinned to one worker for the same reason as engine_batch_nets_per_s: the
// speedup is an algorithmic claim (shared factorization + blocked
// substitution), not a core-count one.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "circuit/mna.h"
#include "sim/solver_backend.h"
#include "tech/testbench.h"
#include "tech/wire.h"
#include "util/units.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

std::uint64_t dbits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct GridSpec {
  double length_mm;
  double width_um;
  double load;
};

std::vector<api::Request> fig7_replay_grid() {
  // Four distinct (wire, load) topologies; within each, 49 slews share the
  // exact companion matrix, so the engine forms 4 groups of 49 lanes.
  const GridSpec specs[] = {{3.0, 1.6, 20 * ff},
                            {4.0, 1.6, 20 * ff},
                            {5.0, 1.6, 20 * ff},
                            {5.0, 1.2, 50 * ff}};
  std::vector<api::Request> requests;
  requests.reserve(196);
  for (const GridSpec& spec : specs) {
    const tech::WireParasitics wire =
        *tech::find_paper_wire_case(spec.length_mm, spec.width_um);
    for (int k = 0; k < 49; ++k) {
      api::Request r;
      r.label = "fig7-" + std::to_string(spec.length_mm) + "mm-" +
                std::to_string(k);
      r.cell_size = 100.0;
      r.input_slew = (20.0 + 5.0 * k) * ps;
      r.net = tech::line_net(wire, spec.load);
      r.far_end_replay = true;
      r.keep_waveforms = true;  // full-waveform bitwise audit below
      // Same last-iterate semantics as fig7_scatter: a Ceff solve that runs
      // out of its cap must not fail the throughput run.
      r.require_convergence = false;
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

// One timed run of the batch; its responses land in `out`.
double time_batch(api::Engine& engine, const std::vector<api::Request>& requests,
                  const api::BatchOptions& opt,
                  std::vector<api::Response>& out) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  auto results = engine.run_batch(requests, opt);
  const double s = std::chrono::duration<double>(clock::now() - t0).count();
  out = bench::unwrap(std::move(results));
  return s;
}

// Time steps the batched replays advanced, summed over lanes: each recorded
// far-end waveform holds its DC sample plus one sample per step.
std::size_t lane_steps(const std::vector<api::Response>& responses) {
  std::size_t steps = 0;
  for (const api::Response& r : responses) {
    if (r.model_far_wave.size() > 0) steps += r.model_far_wave.size() - 1;
  }
  return steps;
}

// Counts slots whose far-end answer differs in any bit between the two runs.
std::size_t bitwise_mismatches(const std::vector<api::Response>& batched,
                               const std::vector<api::Response>& per_slot) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const api::Response& a = batched[i];
    const api::Response& b = per_slot[i];
    bool same = a.has_model_far && b.has_model_far &&
                dbits(a.model_far.delay) == dbits(b.model_far.delay) &&
                dbits(a.model_far.slew) == dbits(b.model_far.slew) &&
                a.model_far_wave.size() == b.model_far_wave.size();
    if (same) {
      for (std::size_t k = 0; k < a.model_far_wave.size(); ++k) {
        if (dbits(a.model_far_wave.time(k)) != dbits(b.model_far_wave.time(k)) ||
            dbits(a.model_far_wave.value(k)) != dbits(b.model_far_wave.value(k))) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      std::fprintf(stderr,
                   "scenario_batching: slot %zu not bitwise identical "
                   "(batched delay %.17g vs per-slot %.17g)\n",
                   i, a.model_far.delay, b.model_far.delay);
      ++mismatches;
    }
  }
  return mismatches;
}

// Exact structural counts of the replay deck rlcbench's fig7_replay runs (a
// paper wire case at 40 segments and 1 ps), the same on every runner (CI
// bars them by equality): its unknowns, and the row swaps of the banded LU
// of its step matrix, stamped by the stepper's own static assembly.
struct ReplayDeckCounts {
  std::size_t unknowns = 0;
  std::size_t row_swaps = 0;
};

ReplayDeckCounts replay_deck_counts() {
  tech::DeckOptions deck_opt;
  deck_opt.segments = 40;
  deck_opt.dt = 1 * ps;
  const tech::SourceNetDeck deck = tech::compile_source_net(
      wave::Pwl({{10 * ps, 0.0}, {110 * ps, 1.8}}),
      tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff), deck_opt);
  // The probes (driving point and leaves) are also the watched nodes.
  const ckt::MnaStructure structure(deck.netlist, deck.probes);
  sim::detail::BandedSolver solver(structure.unknown_count(), structure.bandwidth());
  sim::detail::assemble_static_stamps(solver, deck.netlist, structure, deck_opt.dt,
                                      1e-12, tech::sim_options(deck_opt, deck),
                                      /*cached_path=*/true);
  solver.factor();
  return {structure.unknown_count(), solver.row_swaps()};
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::list_metrics_requested(argc, argv)) {
    // Keep in sync with the update_bench_json call below (the key-set smoke
    // diffs this list against the checked-in BENCH_perf.json).
    bench::list_metrics("scenario_batching",
                        {"grid_scenarios", "grid_topologies", "per_slot_s",
                         "batched_s", "fig7_grid_speedup",
                         "bitwise_mismatches", "block_ns_per_lane_step",
                         "replay_deck_unknowns", "replay_deck_row_swaps"});
    return 0;
  }

  bench::warm_library({100.0});
  api::Engine& engine = bench::engine();
  const std::vector<api::Request> requests = fig7_replay_grid();

  api::BatchOptions opt = bench::sweep_fidelity();
  opt.n_threads = 1;

  // After one warm-up each, the two sides run in alternating rounds and each
  // keeps its fastest: a burst of load on a shared host then slows both
  // sides' rounds alike instead of all of one side's.
  api::BatchOptions batched_opt = opt;
  batched_opt.batch_scenarios = true;
  api::BatchOptions per_slot_opt = opt;
  per_slot_opt.batch_scenarios = false;
  (void)engine.run_batch(requests, batched_opt);
  (void)engine.run_batch(requests, per_slot_opt);
  constexpr int kRounds = 5;
  std::vector<api::Response> batched, per_slot;
  double batched_s = 1e300;
  double per_slot_s = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    batched_s = std::min(batched_s, time_batch(engine, requests, batched_opt, batched));
    per_slot_s = std::min(per_slot_s, time_batch(engine, requests, per_slot_opt, per_slot));
  }

  const std::size_t mismatches = bitwise_mismatches(batched, per_slot);
  const double speedup = per_slot_s / batched_s;
  // The whole batch (model passes, deck compiles and grouping included) per
  // lane-step: an upper bound on the block stepper's own cost per lane-step.
  const double ns_per_lane_step = batched_s * 1e9 / static_cast<double>(lane_steps(batched));

  std::printf("== scenario batching (Fig-7 grid, %zu scenarios, 4 groups) ==\n",
              requests.size());
  std::printf("  per-slot replays:             %8.3f s\n", per_slot_s);
  std::printf("  shared-factorization batched: %8.3f s\n", batched_s);
  std::printf("  speedup: %.2fx   bitwise mismatches: %zu\n", speedup, mismatches);
  std::printf("  batched time per lane-step:   %8.1f ns\n", ns_per_lane_step);
  const ReplayDeckCounts replay = replay_deck_counts();
  std::printf("  40-segment replay deck: %zu unknowns, %zu row swaps per factorization\n",
              replay.unknowns, replay.row_swaps);

  bench::update_bench_json(
      "BENCH_perf.json", "perf", "scenario_batching",
      {{"grid_scenarios", static_cast<double>(requests.size()), "count"},
       {"grid_topologies", 4.0, "count"},
       {"per_slot_s", per_slot_s, "s"},
       {"batched_s", batched_s, "s"},
       {"fig7_grid_speedup", speedup, "x"},
       {"bitwise_mismatches", static_cast<double>(mismatches), "count"},
       {"block_ns_per_lane_step", ns_per_lane_step, "ns"},
       {"replay_deck_unknowns", static_cast<double>(replay.unknowns), "count"},
       {"replay_deck_row_swaps", static_cast<double>(replay.row_swaps), "count"}});
  std::printf("(merged into BENCH_perf.json under \"scenario_batching.\")\n");
  return mismatches == 0 ? 0 : 1;
}
