// Randomized-topology property harness: proves the whole stack (net -> ckt
// -> sim -> moments -> core -> api) against its own oracles on ~1000 seeded
// instances per run.
//
// Built as its own binary (rlceff_property) with a custom main so it can
// carry harness flags next to the gtest ones:
//
//   --count-scale <pct>   scale every family's instance count (default 100;
//                         env RLCEFF_PROPERTY_SCALE overrides the default)
//   --seed <0xhex|dec>    replay exactly one instance per (filtered) family
//   --threads <n>         sweep pool width (0 = hardware concurrency)
//   --failures-dir <dir>  where replay decks are written (default: failures)
//   --solver <kind>       force a linear-solver backend (auto, dense, banded,
//                         sparse) on every sim-backed oracle deck, so each
//                         backend sees the full randomized topology stream
//   --inject-stamp-bug    fault injection self-test: skew one cached-path
//                         MNA stamp; the equivalence oracles MUST fail
//
// Every instance is derived from (base seed, family, index), so verdicts
// are identical at any thread count, and every failure prints its seed, the
// shrunk generator recipe, a replay deck under --failures-dir, and the
// one-line rerun command.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "sim/sweep.h"
#include "testkit/generate.h"
#include "testkit/mutate.h"
#include "testkit/oracles.h"
#include "testkit/replay.h"
#include "testkit/rng.h"
#include "util/units.h"

namespace rlceff::testkit {
namespace {

using namespace rlceff::units;

struct PropertyConfig {
  std::uint64_t base_seed = 0x20030603ull;  // DAC'03
  int scale_pct = 100;
  unsigned n_threads = 0;
  std::string failures_dir = "failures";
  sim::SolverKind forced_solver = sim::SolverKind::automatic;
  bool inject_stamp_bug = false;
  std::optional<std::uint64_t> replay_seed;
};

PropertyConfig g_config;
std::atomic<std::size_t> g_instances{0};

std::size_t scaled(std::size_t count) {
  return std::max<std::size_t>(
      1, count * static_cast<std::size_t>(g_config.scale_pct) / 100);
}

std::uint64_t family_hash(const std::string& family) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : family) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

charlib::CharacterizationGrid property_grid() {
  charlib::CharacterizationGrid grid;
  grid.input_slews = {25 * ps, 50 * ps, 100 * ps, 200 * ps, 300 * ps};
  grid.loads = {20 * ff, 50 * ff, 100 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf, 4 * pf};
  return grid;
}

api::BatchOptions property_batch_options() {
  api::BatchOptions options;
  options.grid = property_grid();
  return options;
}

// One shared engine: the cell menu is characterized once per binary run and
// every model-level family hits warm tables.
api::Engine& shared_engine() {
  static api::Engine* engine = [] {
    auto* e = new api::Engine(tech::Technology::cmos180());
    e->warm_cache({25.0, 50.0, 75.0, 100.0, 150.0, 200.0}, property_grid(),
                  g_config.n_threads);
    return e;
  }();
  return *engine;
}

OracleOptions sim_oracle_options() {
  OracleOptions options;
  options.solver = g_config.forced_solver;
  if (g_config.inject_stamp_bug) options.stamp_skew = 2e-4;
  return options;
}

// Generic shrink loop: keep taking the first smaller recipe that still
// fails, within a fixed re-run budget.  Returns the smallest failing recipe
// together with its failure message (`error` arrives as the original
// recipe's message), so callers never re-run the oracle just to recover the
// text.
template <class Recipe>
std::pair<Recipe, std::string> shrink_recipe(
    Recipe recipe, std::string error,
    const std::function<std::optional<std::string>(const Recipe&)>& failure_of) {
  int budget = 48;
  bool progressed = true;
  while (progressed && budget > 0) {
    progressed = false;
    for (const Recipe& candidate : shrink_candidates(recipe)) {
      if (--budget <= 0) break;
      if (std::optional<std::string> message = failure_of(candidate)) {
        recipe = candidate;
        error = std::move(*message);
        progressed = true;
        break;
      }
    }
  }
  return {std::move(recipe), std::move(error)};
}

// Composes the failure report for one instance: seed, recipe, error, replay
// deck path (written here) and the harness rerun line.
std::string report(const std::string& family, std::uint64_t seed,
                   const std::string& recipe, const std::string& error,
                   const api::Request* replay) {
  std::string out = "seed=" + seed_hex(seed) + " recipe=" + recipe + "\n    error: " + error;
  if (replay != nullptr) {
    try {
      const std::string deck =
          write_failure_deck(g_config.failures_dir, family, seed, *replay);
      out += "\n    replay: rlceff_cli " + deck;
    } catch (const std::exception& e) {
      // std::exception, not just Error: an unwritable failures dir raises
      // std::filesystem_error, and a deck-write problem must never eat the
      // actual oracle failure's recipe and message.
      out += "\n    (replay deck not written: " + std::string(e.what()) + ")";
    }
  }
  out += "\n    rerun: rlceff_property --gtest_filter='PropertySuite.*' --seed=" +
         seed_hex(seed);
  return out;
}

// Sweeps one family: derives per-index seeds, runs instances on the pool
// (deterministic slot order), reports every failure to stderr, and fails the
// gtest once at the end.
void run_family(const std::string& family, std::size_t count,
                std::size_t instances_per_seed,
                const std::function<std::string(std::uint64_t)>& run_one) {
  std::vector<std::uint64_t> seeds;
  if (g_config.replay_seed.has_value()) {
    seeds.push_back(*g_config.replay_seed);
  } else {
    const std::uint64_t fh = family_hash(family);
    seeds.reserve(scaled(count));
    for (std::size_t i = 0; i < scaled(count); ++i) {
      seeds.push_back(mix_seed(g_config.base_seed, fh, i));
    }
  }

  const std::vector<std::string> verdicts = sim::run_sweep(
      seeds,
      [&](std::uint64_t seed) -> std::string {
        try {
          return run_one(seed);
        } catch (const std::exception& e) {
          return report(family, seed, "(harness)",
                        std::string("unexpected exception: ") + e.what(), nullptr);
        }
      },
      g_config.n_threads);
  g_instances += seeds.size() * instances_per_seed;

  std::size_t failures = 0;
  for (const std::string& verdict : verdicts) {
    if (verdict.empty()) continue;
    ++failures;
    std::fprintf(stderr, "[property] FAIL family=%s %s\n", family.c_str(),
                 verdict.c_str());
  }
  if (failures != 0) {
    ADD_FAILURE() << family << ": " << failures << " of " << seeds.size()
                  << " instances violated the oracle (seeds, recipes and replay "
                     "decks on stderr; decks under "
                  << g_config.failures_dir << "/)";
  }
}

// A model-only request wrapping a net, for replay decks of net-level
// failures.
api::Request wrap_net(std::uint64_t seed, const net::Net& net) {
  api::Request request;
  request.label = "pn" + seed_hex(seed);
  request.cell_size = 75.0;
  request.input_slew = 100 * ps;
  request.net = net;
  return request;
}

// Shared skeleton of the net-instance families: generate, check, shrink,
// report.  The oracle gets its own child stream so shrinking re-runs with
// identical auxiliary draws.
std::string run_net_instance(const std::string& family, std::uint64_t seed,
                             const std::function<void(const net::Net&, Rng)>& oracle) {
  Rng rng(seed);
  const NetRecipe recipe = random_net_recipe(rng);
  auto failure_of = [&](const NetRecipe& candidate) -> std::optional<std::string> {
    try {
      oracle(instantiate(candidate), Rng(mix_seed(seed, 0x0A11)));
      return std::nullopt;
    } catch (const Error& e) {
      return std::string(e.what());
    }
  };
  std::optional<std::string> first = failure_of(recipe);
  if (!first.has_value()) return {};
  const auto [smallest, error] =
      shrink_recipe<NetRecipe>(recipe, std::move(*first), failure_of);
  const api::Request replay = wrap_net(seed, instantiate(smallest));
  return report(family, seed, describe(smallest), error, &replay);
}

std::string run_group_instance(
    const std::string& family, std::uint64_t seed,
    const std::function<void(const GroupRecipe&, Rng)>& oracle) {
  Rng rng(seed);
  const GroupRecipe recipe = random_group_recipe(rng);
  auto failure_of = [&](const GroupRecipe& candidate) -> std::optional<std::string> {
    try {
      oracle(candidate, Rng(mix_seed(seed, 0x0A11)));
      return std::nullopt;
    } catch (const Error& e) {
      return std::string(e.what());
    }
  };
  std::optional<std::string> first = failure_of(recipe);
  if (!first.has_value()) return {};
  const auto [smallest, error] =
      shrink_recipe<GroupRecipe>(recipe, std::move(*first), failure_of);

  api::Request replay;
  replay.label = "pg" + seed_hex(seed);
  replay.group = instantiate(smallest);
  replay.victim = 0;
  return report(family, seed, describe(smallest), error, &replay);
}

TEST(PropertySuite, NetInvariants) {
  run_family("net_invariants", 260, 1, [](std::uint64_t seed) {
    return run_net_instance("net_invariants", seed, [](const net::Net& net, Rng) {
      check_net_invariants(net, OracleOptions{});
    });
  });
}

TEST(PropertySuite, ValidationReporting) {
  run_family("validation_reporting", 180, 1, [](std::uint64_t seed) -> std::string {
    try {
      check_validation_reporting(Rng(seed));
      return {};
    } catch (const Error& e) {
      return report("validation_reporting", seed, "(defect menu, see oracle)",
                    e.what(), nullptr);
    }
  });
}

// Every generator-valid net must lint with zero error-severity findings
// under the full pass (deep conditioning + model families included) — the
// analyzer's false-positive gate, swept at 1100 instances per run.
TEST(PropertySuite, LintClean) {
  run_family("lint_clean", 1100, 1, [](std::uint64_t seed) {
    return run_net_instance("lint_clean", seed, [](const net::Net& net, Rng) {
      check_lint_clean(net);
    });
  });
}

TEST(PropertySuite, LintCleanGroup) {
  run_family("lint_clean_group", 60, 1, [](std::uint64_t seed) {
    return run_group_instance("lint_clean_group", seed,
                              [](const GroupRecipe& recipe, Rng) {
                                check_lint_clean(instantiate(recipe));
                              });
  });
}

// The analyzer's false-negative gate: every MutationKind planted in a valid
// net must be caught by its expected code, on both faces of the taxonomy
// (lint_branch report and net::Net construction refusal).
TEST(PropertySuite, LintMutation) {
  run_family("lint_mutation", 150, all_mutations().size(), [](std::uint64_t seed) {
    return run_net_instance("lint_mutation", seed,
                            [](const net::Net& net, Rng rng) {
                              check_lint_mutation(net, rng);
                            });
  });
}

TEST(PropertySuite, LintMutationGroup) {
  run_family("lint_mutation_group", 40, 3, [](std::uint64_t seed) {
    return run_group_instance("lint_mutation_group", seed,
                              [](const GroupRecipe& recipe, Rng rng) {
                                check_lint_mutation_group(instantiate(recipe), rng);
                              });
  });
}

TEST(PropertySuite, CeffConvergence) {
  shared_engine();
  run_family("ceff_convergence", 160, 1, [](std::uint64_t seed) -> std::string {
    Rng rng(seed);
    const api::Request request = random_request(rng);
    try {
      check_engine_outcome(shared_engine(), request, property_batch_options());
      return {};
    } catch (const Error& e) {
      return report("ceff_convergence", seed, "request '" + request.label + "'",
                    e.what(), &request);
    }
  });
}

TEST(PropertySuite, MonotoneDelay) {
  shared_engine();
  run_family("monotone_delay", 120, 1, [](std::uint64_t seed) {
    return run_net_instance("monotone_delay", seed, [seed](const net::Net& net, Rng) {
      Rng aux(mix_seed(seed, 0xD1A7));
      const double cells[] = {25.0, 50.0, 75.0, 100.0, 150.0, 200.0};
      check_monotone_delay(shared_engine(), net, aux.pick(cells),
                           aux.uniform(50 * ps, 200 * ps), property_batch_options());
    });
  });
}

TEST(PropertySuite, CachedVsNaive) {
  run_family("cached_vs_naive", 90, 1, [](std::uint64_t seed) {
    return run_net_instance("cached_vs_naive", seed, [](const net::Net& net, Rng rng) {
      check_cached_vs_naive(net, rng, sim_oracle_options());
    });
  });
}

TEST(PropertySuite, CoupledCachedVsNaive) {
  run_family("coupled_cached_vs_naive", 18, 1, [](std::uint64_t seed) {
    return run_group_instance(
        "coupled_cached_vs_naive", seed, [](const GroupRecipe& recipe, Rng rng) {
          // Keep the coupled equivalence decks narrow: two uniform members,
          // few segments — the contract is fidelity-independent.
          GroupRecipe trimmed = recipe;
          if (trimmed.members.size() > 2) trimmed.members.resize(2);
          OracleOptions options = sim_oracle_options();
          options.segments = 4;
          check_cached_vs_naive(instantiate(trimmed), rng, options);
        });
  });
}

TEST(PropertySuite, SolverEquivalence) {
  run_family("solver_equivalence", 70, 1, [](std::uint64_t seed) {
    return run_net_instance("solver_equivalence", seed,
                            [](const net::Net& net, Rng rng) {
                              check_solver_equivalence(net, rng, OracleOptions{});
                            });
  });
}

// Each explicit backend (dense, banded, sparse) carries the factor-once
// cached-vs-naive bitwise contract on its own: both driver-driven (MOSFET
// restamping through the position map) and source-driven (static-image
// reuse) decks, drawn from the same child stream for every backend.
TEST(PropertySuite, ForcedSolver) {
  run_family("forced_solver", 36, 1, [](std::uint64_t seed) {
    return run_net_instance("forced_solver", seed, [](const net::Net& net, Rng rng) {
      constexpr sim::SolverKind kKinds[] = {
          sim::SolverKind::dense, sim::SolverKind::banded, sim::SolverKind::sparse};
      for (sim::SolverKind kind : kKinds) {
        OracleOptions options = sim_oracle_options();
        options.solver = kind;
        try {
          check_cached_vs_naive(net, rng, options);
        } catch (const Error& e) {
          throw Error(std::string("forced ") + sim::to_string(kind) + ": " +
                      e.what());
        }
      }
    });
  });
}

TEST(PropertySuite, ChargeConservation) {
  run_family("charge_conservation", 80, 1, [](std::uint64_t seed) {
    return run_net_instance("charge_conservation", seed,
                            [](const net::Net& net, Rng rng) {
                              OracleOptions options;
                              options.solver = g_config.forced_solver;
                              check_charge_conservation(net, rng, options);
                            });
  });
}

TEST(PropertySuite, GroupInvariants) {
  run_family("group_invariants", 60, 1, [](std::uint64_t seed) {
    return run_group_instance("group_invariants", seed,
                              [](const GroupRecipe& recipe, Rng rng) {
                                const net::CoupledGroup group = instantiate(recipe);
                                check_group_invariants(group,
                                                       rng.uniform_index(group.size()),
                                                       OracleOptions{});
                              });
  });
}

TEST(PropertySuite, BatchInvariance) {
  shared_engine();
  constexpr std::size_t kRequestsPerBatch = 24;
  run_family("batch_invariance", 3, kRequestsPerBatch,
             [](std::uint64_t seed) -> std::string {
               Rng rng(seed);
               std::vector<api::Request> requests;
               requests.reserve(kRequestsPerBatch);
               for (std::size_t k = 0; k < kRequestsPerBatch; ++k) {
                 api::Request request = random_request(rng);
                 request.label += "-" + std::to_string(k);  // force unique labels
                 requests.push_back(std::move(request));
               }
               try {
                 check_batch_invariance(shared_engine(), std::move(requests),
                                        property_batch_options(),
                                        Rng(mix_seed(seed, 0xBA7C)));
                 return {};
               } catch (const Error& e) {
                 return report("batch_invariance", seed,
                               std::to_string(kRequestsPerBatch) + "-request batch",
                               e.what(), nullptr);
               }
             });
}

// Chaos batches run low-fidelity reference decks: step_budget fault slots
// start (budget-stopped) transient sims, which must stay cheap at 200
// instances.
api::BatchOptions chaos_batch_options() {
  api::BatchOptions options = property_batch_options();
  options.deck.segments = 12;
  options.deck.dt = 1 * ps;
  return options;
}

TEST(PropertySuite, ChaosBatch) {
  shared_engine();
  constexpr std::size_t kChaosSlots = 6;
  run_family(
      "chaos_batch", 200, kChaosSlots, [](std::uint64_t seed) -> std::string {
        auto failure_of = [&](std::size_t slots) -> std::optional<std::string> {
          try {
            check_chaos_batch(shared_engine(), seed, chaos_batch_options(), slots);
            return std::nullopt;
          } catch (const Error& e) {
            return std::string(e.what());
          }
        };
        std::optional<std::string> first = failure_of(kChaosSlots);
        if (!first.has_value()) return {};
        // Shrink by truncation: faults are keyed on (seed, slot) and the
        // requests are drawn in slot order, so a shorter batch is a strict
        // prefix of the failing one.  Keep the shortest prefix that fails.
        std::size_t slots = kChaosSlots;
        std::string error = std::move(*first);
        for (std::size_t n = 1; n < kChaosSlots; ++n) {
          if (std::optional<std::string> message = failure_of(n)) {
            slots = n;
            error = std::move(*message);
            break;
          }
        }
        return report("chaos_batch", seed,
                      std::to_string(slots) + "-slot chaos batch", error, nullptr);
      });
}

// Replay fleets run at chaos fidelity (short decks, coarse dt): the oracle
// runs each fleet twice per backend, and the forced-dense pass would
// otherwise dominate the suite.
api::BatchOptions replay_batch_options() {
  api::BatchOptions options = property_batch_options();
  options.deck.segments = 12;
  options.deck.dt = 1 * ps;
  return options;
}

// Scenario batching is an execution strategy, not an estimator: over random
// topologies, random group shapes, all three forced backends (plus the
// automatic selection), and independently drawn thread counts, batched and
// per-slot replays must agree to the last bit of the far-end waveform.
TEST(PropertySuite, BatchedReplayEquivalence) {
  shared_engine();
  run_family(
      "batched_replay_equivalence", 16, 4, [](std::uint64_t seed) -> std::string {
        constexpr sim::SolverKind kKinds[] = {
            sim::SolverKind::automatic, sim::SolverKind::dense,
            sim::SolverKind::banded, sim::SolverKind::sparse};
        for (sim::SolverKind kind : kKinds) {
          try {
            check_batched_replay_equivalence(shared_engine(), seed,
                                             replay_batch_options(), kind);
          } catch (const Error& e) {
            return report("batched_replay_equivalence", seed,
                          std::string("replay fleet, forced ") +
                              sim::to_string(kind),
                          e.what(), nullptr);
          }
        }
        return {};
      });
}

// Near-identical is not identical: a one-ULP element value or one extra
// topology edge on a random compiled deck must never land in an existing
// factorization group, and the cheap hash key alone must already split it.
TEST(PropertySuite, AdversarialGrouping) {
  run_family("adversarial_grouping", 150, 1, [](std::uint64_t seed) -> std::string {
    try {
      check_adversarial_grouping(seed, sim_oracle_options());
      return {};
    } catch (const Error& e) {
      return report("adversarial_grouping", seed, "compiled source deck",
                    e.what(), nullptr);
    }
  });
}

// The chaos lane's batched-replay variant: one faulted member of a
// shared-factorization group (worker_throw, instant_deadline, or
// step_budget) must fail with its contractual code while its group-mates
// stay bitwise identical to the clean batched baseline.
TEST(PropertySuite, ChaosReplayGroup) {
  shared_engine();
  run_family("chaos_replay_group", 60, 4, [](std::uint64_t seed) -> std::string {
    try {
      check_chaos_replay_group(shared_engine(), seed, replay_batch_options());
      return {};
    } catch (const Error& e) {
      return report("chaos_replay_group", seed, "4-slot replay group", e.what(),
                    nullptr);
    }
  });
}

TEST(PropertySuite, NanStampGuard) {
  run_family("nan_stamp_guard", 60, 1, [](std::uint64_t seed) {
    return run_net_instance("nan_stamp_guard", seed, [](const net::Net& net, Rng rng) {
      OracleOptions options;
      options.solver = g_config.forced_solver;
      check_nan_stamp_fault(net, rng, options);
    });
  });
}

// Ending a run at its last measured crossing is an execution strategy, not
// an estimator: over random nets, coupled groups, cap loads and block lanes,
// the stopped waveforms must be bitwise prefixes of the full-horizon ones
// with bitwise-equal edges, and an edge that never completes must run to
// t_stop.
TEST(PropertySuite, MeasuredEdgeStop) {
  run_family("measured_edge_stop", 80, 1, [](std::uint64_t seed) {
    OracleOptions options;
    options.solver = g_config.forced_solver;
    if (Rng(mix_seed(seed, 0x5709)).chance(0.25)) {
      return run_group_instance(
          "measured_edge_stop", seed, [options](const GroupRecipe& recipe, Rng rng) {
            GroupRecipe trimmed = recipe;
            if (trimmed.members.size() > 2) trimmed.members.resize(2);
            OracleOptions narrow = options;
            narrow.segments = 4;
            check_measured_edge_stop(instantiate(trimmed), rng, narrow);
          });
    }
    return run_net_instance("measured_edge_stop", seed,
                            [options](const net::Net& net, Rng rng) {
                              check_measured_edge_stop(net, rng, options);
                            });
  });
}

// TierPolicy::force_ceff must be bitwise-identical to the legacy model-only
// path on every random request (single nets and coupled groups alike): the
// tier subsystem is routing, not a new estimator, for Tier B.
TEST(PropertySuite, TierIdentity) {
  shared_engine();
  run_family("tier_identity", 400, 1, [](std::uint64_t seed) -> std::string {
    Rng rng(seed);
    const api::Request request = random_request(rng);
    try {
      check_tier_identity(shared_engine(), request, property_batch_options());
      return {};
    } catch (const Error& e) {
      return report("tier_identity", seed, "request '" + request.label + "'",
                    e.what(), &request);
    }
  });
}

// Whatever tier a balanced request routes to must sit inside that tier's
// checked-in accuracy envelope of the transient reference (low fidelity:
// the envelope is deliberately coarse enough to hold at any fidelity).
TEST(PropertySuite, TierEnvelope) {
  shared_engine();
  run_family("tier_envelope", 60, 1, [](std::uint64_t seed) -> std::string {
    Rng rng(seed);
    api::Request request = random_request(rng);
    try {
      api::BatchOptions options = property_batch_options();
      options.deck.segments = 12;
      options.deck.dt = 1 * ps;
      check_tier_envelope(shared_engine(), request, options);
      return {};
    } catch (const Error& e) {
      return report("tier_envelope", seed, "request '" + request.label + "'",
                    e.what(), &request);
    }
  });
}

TEST(PropertySuite, MillerEnvelope) {
  shared_engine();
  run_family("miller_envelope", 10, 1, [](std::uint64_t seed) {
    return run_group_instance(
        "miller_envelope", seed, [](const GroupRecipe& recipe, Rng rng) {
          GroupRecipe trimmed = recipe;
          if (trimmed.members.size() > 2) trimmed.members.resize(2);
          OracleOptions options;
          options.segments = 6;
          check_miller_envelope(shared_engine().technology(),
                                shared_engine().library(), trimmed, rng, options);
        });
  });
}

}  // namespace
}  // namespace rlceff::testkit

int main(int argc, char** argv) {
  using rlceff::testkit::g_config;
  using rlceff::testkit::g_instances;

  if (const char* scale = std::getenv("RLCEFF_PROPERTY_SCALE")) {
    g_config.scale_pct = std::atoi(scale);
  }

  ::testing::InitGoogleTest(&argc, argv);  // strips --gtest_* flags

  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto next = [&]() -> const char* { return k + 1 < argc ? argv[++k] : nullptr; };
    // Distinguishes "flag not matched" (nullptr) from "flag matched but the
    // value is missing" (diagnosed here), so a forgotten value is not
    // misreported as an unknown argument.
    auto value_of = [&](const std::string& flag) -> const char* {
      // Accept both "--flag value" and "--flag=value".
      if (arg == flag) {
        const char* v = next();
        if (v == nullptr) {
          std::fprintf(stderr, "rlceff_property: %s needs a value\n", flag.c_str());
          std::exit(2);
        }
        return v;
      }
      if (arg.rfind(flag + "=", 0) == 0) return arg.c_str() + flag.size() + 1;
      return nullptr;
    };
    if (const char* v = value_of("--count-scale")) {
      g_config.scale_pct = std::atoi(v);
    } else if (const char* v = value_of("--seed")) {
      g_config.replay_seed = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value_of("--threads")) {
      g_config.n_threads = static_cast<unsigned>(std::atoi(v));
    } else if (const char* v = value_of("--failures-dir")) {
      g_config.failures_dir = v;
    } else if (const char* v = value_of("--solver")) {
      try {
        g_config.forced_solver = rlceff::sim::solver_kind_from_string(v);
      } catch (const rlceff::Error& e) {
        std::fprintf(stderr, "rlceff_property: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--inject-stamp-bug") {
      g_config.inject_stamp_bug = true;
    } else {
      std::fprintf(stderr,
                   "rlceff_property: unknown argument '%s'\n"
                   "usage: rlceff_property [gtest flags] [--count-scale <pct>] "
                   "[--seed <n>] [--threads <n>] [--failures-dir <dir>] "
                   "[--solver auto|dense|banded|sparse] [--inject-stamp-bug]\n",
                   arg.c_str());
      return 2;
    }
  }
  if (g_config.scale_pct <= 0) {
    std::fprintf(stderr, "rlceff_property: --count-scale must be positive\n");
    return 2;
  }

  std::fprintf(stderr,
               "[property] base_seed=0x%llx scale=%d%% threads=%u failures_dir=%s "
               "solver=%s%s\n",
               static_cast<unsigned long long>(g_config.base_seed), g_config.scale_pct,
               g_config.n_threads, g_config.failures_dir.c_str(),
               rlceff::sim::to_string(g_config.forced_solver),
               g_config.inject_stamp_bug ? " (stamp bug injected)" : "");

  const int rc = RUN_ALL_TESTS();
  std::fprintf(stderr, "[property] %zu generated instances swept\n",
               g_instances.load());
  return rc;
}
