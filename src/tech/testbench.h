// Canonical simulation decks.
//
// Every experiment in the paper is one of three decks:
//   1. an inverter driving a pure capacitive load (library characterization),
//   2. an inverter driving a discretized interconnect net (the "HSPICE"
//      reference),
//   3. an ideal PWL source driving the same net (replaying a modeled driver
//      output waveform to validate the sink responses, Fig 6).
//
// Decks 2 and 3 take any net::Net — uniform lines (tech::line_net),
// multi-section routes, and branched RLC trees (net::Branch trees of lumped
// sections) all compile through ckt::append_net.
//
// The input stimulus is a falling saturated ramp (so the driver output
// rises), starting after a short DC hold.  All waveforms are returned in
// absolute simulation time; input_time_50() gives the reference instant
// delays are measured from.
#ifndef RLCEFF_TECH_TESTBENCH_H
#define RLCEFF_TECH_TESTBENCH_H

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/builders.h"
#include "circuit/netlist.h"
#include "net/coupled.h"
#include "net/net.h"
#include "sim/transient.h"
#include "tech/inverter.h"
#include "tech/technology.h"
#include "waveform/pwl.h"
#include "waveform/waveform.h"

namespace rlceff::tech {

struct DeckOptions {
  double t_start = 10e-12;       // input edge begins here [s]
  double t_stop = 2e-9;          // simulation horizon [s]
  double dt = 0.25e-12;          // time step [s]
  std::size_t segments = 120;    // ladder discretization per net section
  // Solver controls (t_stop/dt overridden).  Setting sim.edge_stop.vdd turns
  // on the measured-edge stop (sim::EdgeStop); each deck then fills
  // sim.edge_stop.watch with the driving point and the leaves of every net
  // it drives to rise (the cap-load deck: its output).  The core experiments
  // and api::Engine overwrite sim.edge_stop from their keep_waveforms switch.
  sim::TransientOptions sim;
};

// Simulation of a driver (or source) into a net::Net.
struct NetSimResult {
  wave::Waveform near_end;                                   // driver output
  std::vector<wave::Waveform> leaves;                        // depth-first leaf order
  std::vector<std::pair<std::string, wave::Waveform>> probes;  // named probes
  double input_time_50 = 0.0;  // 50 % crossing of the input stimulus
  // The backend that factored this deck (the run's
  // sim::TransientResult::solver, which is sim::selected_solver over the
  // compiled netlist — never `automatic`); reported up through
  // core::ExperimentResult and api::Response.
  sim::SolverKind solver = sim::SolverKind::automatic;

  // Named-probe lookup; throws when the net declared no such probe.
  const wave::Waveform& probe(std::string_view name) const;
};

// Deck 1: driver into a lumped capacitor.  Returns the output waveform and
// the input 50 % time via the out-parameter.
wave::Waveform simulate_driver_cap_load(const Technology& tech, const Inverter& cell,
                                        double input_slew, double c_load,
                                        const DeckOptions& options,
                                        double* input_time_50 = nullptr);

// The same run whole: its one probe is the output, and it carries the run's
// work counts (time steps, Newton iterations, MOSFET gate-term evaluations).
sim::TransientResult run_driver_cap_load(const Technology& tech, const Inverter& cell,
                                         double input_slew, double c_load,
                                         const DeckOptions& options);

// Deck 2: driver into a discretized net::Net — the one-net instance of
// deck 4 (simulate_coupled_group), which builds the identical deck.
NetSimResult simulate_driver_net(const Technology& tech, const Inverter& cell,
                                 double input_slew, const net::Net& net,
                                 const DeckOptions& options);

// Deck 3: ideal source waveform into the same net.  input_time_50 is the
// source's own 50 % crossing so sink delays have a reference.
NetSimResult simulate_source_net(const wave::Pwl& source, const net::Net& net,
                                 const DeckOptions& options);

// ---- compiled source-net decks -------------------------------------------
// Deck 3's compile step and simulation options, so the scenario-batching
// engine can group compiled decks by topology and run them as one
// shared-factorization block while reusing exactly the deck
// simulate_source_net runs per slot (same netlist build order, same probe
// list — the bitwise-parity prerequisite).

struct SourceNetDeck {
  ckt::Netlist netlist;
  ckt::NodeId out = ckt::ground;   // driving point (source positive node)
  ckt::NetDeckNodes nodes;         // leaves + named probes of the net
  std::vector<ckt::NodeId> probes;  // deduplicated probe list for sim::simulate
};

// options.sim with t_stop/dt overridden by the deck fields and no watched
// nodes (each deck names its own).
sim::TransientOptions sim_options(const DeckOptions& options);

// The TransientOptions simulate_source_net hands sim::simulate for this
// compiled deck: sim_options(options) watching the deck's driving point and
// leaves for the measured-edge stop.
sim::TransientOptions sim_options(const DeckOptions& options,
                                  const SourceNetDeck& deck);

// Builds the deck netlist exactly as simulate_source_net does (source first,
// then the discretized net) without running it.
SourceNetDeck compile_source_net(const wave::Pwl& source, const net::Net& net,
                                 const DeckOptions& options);

// ---- coupled decks -------------------------------------------------------

// What one net's driver does during a coupled run.
enum class DriveEdge {
  rise,      // input falls, driver output rises (the single-net testbench edge)
  fall,      // input rises, driver output falls from Vdd
  hold_low,  // input held at Vdd, driver output stays low (quiet victim/aggressor)
};

struct NetDrive {
  Inverter cell{75.0};
  double input_slew = 100e-12;  // full-swing input ramp time [s]
  DriveEdge edge = DriveEdge::rise;
};

struct CoupledSimResult {
  std::vector<NetSimResult> nets;  // one per group net, in group order
};

// Deck 4: one inverter per net driving a compiled net::CoupledGroup — the
// coupled "HSPICE" reference.  All switching inputs share the same t_start,
// so aggressor and victim edges are aligned; each net's input_time_50 is its
// own input's 50 % crossing (held inputs report t_start).  A group of one
// net with DriveEdge::rise is simulate_driver_net.
CoupledSimResult simulate_coupled_group(const Technology& tech,
                                        std::span<const NetDrive> drives,
                                        const net::CoupledGroup& group,
                                        const DeckOptions& options);

}  // namespace rlceff::tech

#endif  // RLCEFF_TECH_TESTBENCH_H
