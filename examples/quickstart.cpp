// Quickstart: describe an interconnect as a net::Net, hand it to api::Engine
// as a Request, and read the two-ramp effective-capacitance model plus a
// transient-simulation cross-check out of the Response.
//
// Build & run (from the repository root):
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_quickstart
#include <cstdio>

#include "api/engine.h"
#include "tech/wire.h"
#include "util/units.h"

using namespace rlceff;
using namespace rlceff::units;

int main() {
  // 1. The engine owns the technology and the cell cache.  Interconnect: a
  //    5 mm x 1.6 um global wire with a 20 fF receiver, described once as a
  //    net::Net — the IR every layer (deck compiler, moment engine,
  //    experiment harness) consumes.  WireModel plays the role of a field
  //    solver; swap line_net for Net::multi_section or a net::Branch tree
  //    of lumped sections and nothing downstream changes.
  api::Engine engine{tech::Technology::cmos180()};
  const tech::WireModel wires;
  const tech::WireParasitics wire = wires.extract({5 * mm, 1.6 * um});
  const net::Net line = tech::line_net(wire, 20 * ff);
  const net::NetMetrics metrics = line.metrics();
  std::printf("net: R=%.1f ohm  L=%.2f nH  C=%.2f pF  (Z0=%.1f ohm, tf=%.1f ps)\n",
              metrics.path_resistance, wire.inductance / nh,
              metrics.total_capacitance() / pf, metrics.z0,
              metrics.time_of_flight / ps);

  // 2. One request: a 100X driver, 100 ps input slew, this net.  The
  //    reference flag also runs the transient simulator so we can judge the
  //    model; production callers leave it off and get the model alone.  The
  //    engine characterizes the 100X cell on first use (in production flows
  //    warm_cache/load_library skip this).
  api::Request request;
  request.label = "quickstart 5mm/1.6um";
  request.cell_size = 100.0;
  request.input_slew = 100 * ps;
  request.net = line;
  request.reference = true;

  api::BatchOptions options;
  options.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
  options.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf, 4 * pf};

  // 3. Run it.  Failures come back as a structured Outcome, not an
  //    exception; value() unwraps (and would throw a labeled Error if the
  //    scenario had failed).
  const api::Outcome<api::Response> outcome = engine.model(request, options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "scenario '%s' failed [%s]: %s\n",
                 outcome.error().scenario.c_str(), api::to_string(outcome.error().code),
                 outcome.error().message.c_str());
    return 1;
  }
  const api::Response& r = outcome.value();

  // 4. Inspect the model.
  const core::DriverOutputModel& m = r.model;
  const double vdd = engine.technology().vdd;
  std::printf("\ninductance significant: %s (Rs=%.1f ohm vs Z0=%.1f ohm)\n",
              m.criteria.significant() ? "yes -> two-ramp model" : "no -> one ramp",
              m.rs, m.z0);
  std::printf("breakpoint f = %.2f  (first ramp ends at %.2f V)\n", m.f, m.f * vdd);
  std::printf("Ceff1 = %.0f fF (Tr1 = %.0f ps)   Ceff2 = %.0f fF (Tr2' = %.0f ps)\n",
              m.ceff1.ceff / ff, m.ceff1.ramp_time / ps, m.ceff2.ceff / ff,
              m.tr2_new / ps);
  std::printf("total line capacitance %.0f fF -- note Ceff1 << Ctotal << Ceff2\n",
              m.admittance.total_capacitance() / ff);

  // 5. Model accuracy against the simulator.
  std::printf("\n              simulated     model\n");
  std::printf("gate delay    %6.1f ps   %6.1f ps  (%+.1f%%)\n", r.ref_near.delay / ps,
              r.model_near.delay / ps,
              core::pct_error(r.model_near.delay, r.ref_near.delay));
  std::printf("output slew   %6.1f ps   %6.1f ps  (%+.1f%%)\n", r.ref_near.slew / ps,
              r.model_near.slew / ps,
              core::pct_error(r.model_near.slew, r.ref_near.slew));
  std::printf("far-end delay %6.1f ps   %6.1f ps  (%+.1f%%)\n", r.ref_far.delay / ps,
              r.model_far.delay / ps,
              core::pct_error(r.model_far.delay, r.ref_far.delay));
  return 0;
}
