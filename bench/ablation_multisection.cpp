// Multi-section ablation: the first workload the Net IR makes a constructor
// call instead of a subsystem — a width-tapered 6 mm global route (wide at
// the driver, narrowing toward the receiver) described as three uniform
// sections.
//
// For each taper ratio the route keeps the same total length and far-end
// width; only the near/mid widths scale.  The two-ramp model runs on the
// multi-section driving-point moments (exact per-section Telegrapher cascade)
// while the reference simulates the compiled three-ladder deck, so the table
// tracks how the single-Z0 two-ramp assumption degrades as the route turns
// non-uniform.  Cases run in parallel through api::Engine::run_batch.
#include <cstdio>

#include <array>
#include <cmath>
#include <vector>

#include "bench_common.h"
#include "sim/sweep.h"
#include "tech/wire.h"
#include "util/stats.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

constexpr double total_length_mm = 6.0;
constexpr double far_width_um = 0.8;
constexpr int n_sections = 3;

// Near section is `taper` times the far width; intermediate sections step
// geometrically so adjacent sections see the same width ratio.
net::Net tapered_route(const tech::WireModel& wires, double taper) {
  std::array<tech::WireGeometry, n_sections> route;
  for (int k = 0; k < n_sections; ++k) {
    const double exponent =
        static_cast<double>(n_sections - 1 - k) / (n_sections - 1);
    const double width_um = far_width_um * std::pow(taper, exponent);
    route[static_cast<std::size_t>(k)] = {total_length_mm / n_sections * mm,
                                          width_um * um};
  }
  return tech::route_net(wires, route, 20 * ff);
}

}  // namespace

int main() {
  std::printf("== Multi-section ablation: width-tapered %.0f mm route, "
              "%dx sections, 100X driver ==\n",
              total_length_mm, n_sections);
  bench::warm_library({100.0});

  const std::vector<double> tapers = {1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0};
  const tech::WireModel wires;

  std::vector<api::Request> cases;
  for (double taper : tapers) {
    api::Request r;
    char label[32];
    std::snprintf(label, sizeof label, "taper %.2f", taper);
    r.label = label;
    r.cell_size = 100.0;
    r.input_slew = 100 * ps;
    r.net = tapered_route(wires, taper);
    r.reference = true;
    cases.push_back(std::move(r));
  }

  std::printf("# simulating %zu taper points on %u threads\n", cases.size(),
              sim::sweep_worker_count(cases.size(), 0));
  std::fflush(stdout);
  const std::vector<api::Response> results =
      bench::unwrap(bench::engine().run_batch(cases, bench::sweep_fidelity()));

  std::printf("\n%-7s %-6s %-6s | %19s | %19s | %19s\n", "taper", "Z0", "tf",
              "-- near delay  --", "--  near slew  --", "--  far delay  --");
  std::printf("%-7s %-6s %-6s | %9s %9s | %9s %9s | %9s %9s\n", "", "ohm", "ps",
              "sim [ps]", "model", "sim [ps]", "model", "sim [ps]", "model");

  std::vector<double> delay_errs, slew_errs, far_delay_errs;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const api::Response& r = results[k];
    const net::NetMetrics m = cases[k].net.metrics();
    delay_errs.push_back(core::pct_error(r.model_near.delay, r.ref_near.delay));
    slew_errs.push_back(core::pct_error(r.model_near.slew, r.ref_near.slew));
    far_delay_errs.push_back(core::pct_error(r.model_far.delay, r.ref_far.delay));
    std::printf("%-7.2f %-6.1f %-6.1f | %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f\n",
                tapers[k], m.z0, m.time_of_flight / ps, r.ref_near.delay / ps,
                r.model_near.delay / ps, r.ref_near.slew / ps, r.model_near.slew / ps,
                r.ref_far.delay / ps, r.model_far.delay / ps);
  }

  std::printf("\nsummary over the taper sweep (avg |error|): near delay %.1f %%, "
              "near slew %.1f %%, far delay %.1f %%\n",
              util::mean_abs(delay_errs), util::mean_abs(slew_errs),
              util::mean_abs(far_delay_errs));

  std::vector<bench::BenchMetric> accuracy =
      bench::error_metrics("two_ramp", delay_errs, slew_errs);
  accuracy.push_back({"mean_abs_far_delay_error_two_ramp",
                      util::mean_abs(far_delay_errs), "%"});
  bench::update_accuracy_json("multisection", accuracy);
  std::printf("accuracy metrics written to BENCH_accuracy.json (multisection.*)\n");
  return 0;
}
