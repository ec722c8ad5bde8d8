// Parallel scenario sweep runner.
//
// Characterization and reproduction workloads are batches of fully
// independent transient/modeling scenarios: a library grid is ~80 decks, the
// Fig-7 sweep is hundreds of experiment cases.  run_sweep() executes such a
// batch on a small thread pool with deterministic semantics: results[i]
// always corresponds to scenarios[i] regardless of thread count or
// scheduling, every task is attempted even when earlier ones fail, and the
// exception of the lowest failing index is the one rethrown.
//
// run_indexed_sweep_collect() is the failure-isolating variant the
// api::Engine batch path uses: instead of rethrowing, every slot carries the
// exception its task raised (or none), so one bad scenario cannot abort the
// rest of the batch.
#ifndef RLCEFF_SIM_SWEEP_H
#define RLCEFF_SIM_SWEEP_H

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace rlceff::sim {

// Number of workers actually used for a batch: `n_threads` (0 selects the
// hardware concurrency) clamped to the task count.
unsigned sweep_worker_count(std::size_t n_tasks, unsigned n_threads);

// Runs task(0) ... task(n_tasks - 1) across `n_threads` workers and blocks
// until every one of them was attempted.  Returns one slot per task: null
// for tasks that completed, the captured exception for tasks that threw.
// Tasks must not touch shared mutable state (or only thread-safe state, such
// as charlib::CellLibrary).
std::vector<std::exception_ptr> run_indexed_sweep_collect(
    std::size_t n_tasks, const std::function<void(std::size_t)>& task,
    unsigned n_threads = 0);

// Like run_indexed_sweep_collect, but rethrows the exception of the lowest
// failing index (after attempting every task).
void run_indexed_sweep(std::size_t n_tasks,
                       const std::function<void(std::size_t)>& task,
                       unsigned n_threads = 0);

// Maps `fn` over `scenarios` in parallel; results come back in input order.
template <class Scenario, class Fn>
auto run_sweep(const std::vector<Scenario>& scenarios, Fn&& fn,
               unsigned n_threads = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const Scenario&>>> {
  using Result = std::decay_t<std::invoke_result_t<Fn&, const Scenario&>>;
  std::vector<std::optional<Result>> slots(scenarios.size());
  run_indexed_sweep(
      scenarios.size(),
      [&](std::size_t i) { slots[i].emplace(fn(scenarios[i])); },
      n_threads);
  std::vector<Result> results;
  results.reserve(slots.size());
  for (std::optional<Result>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace rlceff::sim

#endif  // RLCEFF_SIM_SWEEP_H
