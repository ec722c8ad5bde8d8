// Lint-overhead benchmark: what admission screening costs next to the work
// it gates.
//
// The Engine's lint screen must be cheap enough to leave on for every batch:
// the acceptance bar is that structurally screening the Fig-7 sweep grid
// (7 lengths x 7 widths x 4 slews, the same 196-request batch
// perf_model_vs_spice measures as engine_batch_nets_per_s) costs under 1% of
// evaluating that batch model-only.  This bench times three things over the
// identical request set:
//   * screen  — the structural core the admission gate runs (connectivity +
//     physicality tree walk; conditioning/model passes off),
//   * deep    — the full advisory pass (conditioning + Eq 9 model checks,
//     driver context filled the way the Engine fills it),
//   * model   — Engine::run_batch model-only, the work being gated.
// Results merge into BENCH_perf.json as the "lint." section (CI asserts the
// screen fraction stays under 1e-2).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "lint/lint.h"
#include "tech/wire.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

std::vector<api::Request> fig7_grid() {
  const tech::WireModel wires;
  std::vector<api::Request> requests;
  for (double l : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}) {
    for (double w : {0.8, 1.2, 1.6, 2.0, 2.5, 3.0, 3.5}) {
      for (double slew : {50.0, 100.0, 150.0, 200.0}) {
        api::Request r;
        r.cell_size = 100.0;
        r.input_slew = slew * ps;
        r.net = tech::line_net(wires.extract({l * mm, w * um}), 20 * ff);
        // Same last-iterate semantics as perf_model_vs_spice: a Ceff solve
        // that runs out of its cap must not fail a slot, since a timing
        // denominator over a batch with failed slots would be meaningless.
        r.require_convergence = false;
        requests.push_back(std::move(r));
      }
    }
  }
  return requests;
}

// Best-of-reps wall time of one full lint pass over the batch.  The
// structural walk is nanoseconds per net, so the pass is repeated enough to
// sit well above clock granularity.
double time_lint_pass(const std::vector<api::Request>& requests,
                      const lint::Options& options, int reps) {
  using clock = std::chrono::steady_clock;
  double best_s = 1e300;
  std::size_t findings = 0;  // consumed so the walk cannot be optimized away
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = clock::now();
    for (const api::Request& r : requests) {
      findings += lint::lint_net(r.net, options).diagnostics.size();
    }
    best_s = std::min(
        best_s, std::chrono::duration<double>(clock::now() - t0).count());
  }
  if (findings == static_cast<std::size_t>(-1)) std::printf("unreachable\n");
  return best_s;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::list_metrics_requested(argc, argv)) {
    // Keep in sync with the update_bench_json call below (the key-set smoke
    // diffs this list against the checked-in BENCH_perf.json).
    bench::list_metrics("lint",
                        {"grid_nets", "screen_ns_per_net", "screen_total_us",
                         "deep_ns_per_net", "model_batch_s",
                         "screen_overhead_fraction"});
    return 0;
  }
  const std::vector<api::Request> requests = fig7_grid();
  const double n = static_cast<double>(requests.size());

  // The admission screen's exact configuration: structural core only.
  const lint::Options screen = api::LintOptions::structural_only();
  const double screen_s = time_lint_pass(requests, screen, 25);

  // The full advisory pass, driver context filled the way the Engine fills
  // it (static Rs estimate + input slew as the Tr1 proxy).
  api::Engine engine{tech::Technology::cmos180()};
  lint::Options deep;
  deep.driver_resistance =
      lint::estimate_driver_resistance(engine.technology(), 100.0);
  deep.input_slew = 100 * ps;
  const double deep_s = time_lint_pass(requests, deep, 5);

  // The gated work: the same grid, model-only, through run_batch (small
  // on-the-fly characterization grid, identical to perf_model_vs_spice).
  api::BatchOptions opt;
  opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
  opt.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf, 4 * pf};
  engine.warm_cache({100.0}, opt.grid);
  using clock = std::chrono::steady_clock;
  double model_s = 1e300;
  (void)engine.run_batch(requests, opt);  // warm-up
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    const auto results = engine.run_batch(requests, opt);
    model_s = std::min(
        model_s, std::chrono::duration<double>(clock::now() - t0).count());
    for (const auto& outcome : results) {
      if (!outcome.ok()) {
        std::fprintf(stderr, "lint_overhead: unexpected failure [%s]: %s\n",
                     api::to_string(outcome.error().code),
                     outcome.error().message.c_str());
        return 1;
      }
    }
  }

  const double overhead = screen_s / model_s;
  std::printf("== lint overhead (Fig-7 grid, %zu nets) ==\n", requests.size());
  std::printf("  admission screen (structural): %8.1f us total  %7.0f ns/net\n",
              1e6 * screen_s, 1e9 * screen_s / n);
  std::printf("  deep pass (conditioning+Eq9):  %8.1f us total  %7.0f ns/net\n",
              1e6 * deep_s, 1e9 * deep_s / n);
  std::printf("  model-only batch:              %8.1f ms total\n", 1e3 * model_s);
  std::printf("  screen / model-batch overhead: %.4f%%  (bar: < 1%%)\n",
              1e2 * overhead);

  bench::update_bench_json(
      "BENCH_perf.json", "perf", "lint",
      {{"grid_nets", n, "count"},
       {"screen_ns_per_net", 1e9 * screen_s / n, "ns/net"},
       {"screen_total_us", 1e6 * screen_s, "us"},
       {"deep_ns_per_net", 1e9 * deep_s / n, "ns/net"},
       {"model_batch_s", model_s, "s"},
       {"screen_overhead_fraction", overhead, ""}});
  std::printf("(merged into BENCH_perf.json under \"lint.\")\n");
  return overhead < 0.01 ? 0 : 1;
}
