// Deck-building helpers for the interconnect structures used throughout the
// reproduction: uniform RLC transmission-line ladders (the "HSPICE" view of a
// wire), lumped pi loads, and the net::Net deck compiler.
#ifndef RLCEFF_CIRCUIT_BUILDERS_H
#define RLCEFF_CIRCUIT_BUILDERS_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <span>

#include "circuit/netlist.h"
#include "net/coupled.h"
#include "net/net.h"

namespace rlceff::ckt {

struct LadderNodes {
  NodeId near_end = ground;
  NodeId far_end = ground;
  std::vector<NodeId> taps;      // shunt-capacitor nodes, near to far (N + 1)
};

// Appends an N-segment lumped approximation of a uniform RLC line with total
// series resistance/inductance (r_total, l_total) and total shunt capacitance
// c_total between `from` and a new far-end node.
//
// Segments are pi-sections: each contributes series (R/N, L/N) with C/(2N)
// shunt at both of its ends, so interior nodes carry C/N and the two end
// nodes C/(2N).  Pi-sections converge to the distributed line's driving-point
// admittance from the capacitive side, which is the polarity the effective
// capacitance theory expects.
LadderNodes append_rlc_ladder(Netlist& netlist, NodeId from, double r_total,
                              double l_total, double c_total, std::size_t segments);

// Appends an RC pi load (c_near at `from`, series r, c_far at a new node).
NodeId append_pi_load(Netlist& netlist, NodeId from, double c_near, double r,
                      double c_far);

// Where one compiled net::Section landed in the deck: the nodes carrying its
// shunt capacitance (with the pi weighting of each node) and the netlist
// indices of its series inductors, both near to far.  Coupling elements
// attach to these.
struct SectionDeckNodes {
  std::vector<NodeId> taps;             // shunt nodes
  std::vector<double> tap_weights;      // fraction of the section C per tap
  std::vector<std::size_t> inductors;   // indices into Netlist::inductors()
};

struct NetDeckNodes {
  NodeId near_end = ground;
  std::vector<NodeId> leaves;                          // depth-first leaf far ends
  std::vector<std::pair<std::string, NodeId>> probes;  // named probe nodes
  std::vector<SectionDeckNodes> sections;              // depth-first section order
};

// Compiles a net::Net into a simulation deck hanging off `from`: every
// section becomes an N-segment pi ladder (lumped capacitance-only sections
// become a single shunt), lumped loads become far-end capacitors, and branch
// points fan the deck out.  This is the one deck compiler behind both the
// uniform-line and tree testbenches.
NetDeckNodes append_net(Netlist& netlist, NodeId from, const net::Net& net,
                        std::size_t segments_per_section);

struct CoupledDeckNodes {
  std::vector<NetDeckNodes> nets;  // one entry per group net, in group order
};

// Compiles a net::CoupledGroup into one deck: each member net hangs off its
// entry in `from` exactly as append_net would compile it alone, then the
// group's coupling elements are stamped between the aligned pi ladders —
// every coupling capacitor is distributed across the two sections' tap nodes
// with the section's own 1/2-1-...-1-1/2 weighting, and every mutual
// coupling becomes one Netlist mutual inductor per aligned segment with
// M_seg = k * sqrt(La_seg * Lb_seg).  A group of one net therefore produces
// a deck identical to append_net's.
CoupledDeckNodes append_coupled_group(Netlist& netlist, std::span<const NodeId> from,
                                      const net::CoupledGroup& group,
                                      std::size_t segments_per_section);

}  // namespace rlceff::ckt

#endif  // RLCEFF_CIRCUIT_BUILDERS_H
